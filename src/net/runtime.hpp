#pragma once

/// \file runtime.hpp
/// Two-party protocol runtime: runs server and client bodies on two
/// threads over a DuplexChannel and reports wall time + traffic.

#include <exception>
#include <functional>

#include "net/channel.hpp"

namespace c2pi::net {

struct RunResult {
    ChannelStats stats;
    double wall_seconds = 0.0;  ///< total joint execution time
};

/// Execute the two party bodies concurrently. A body that throws ends
/// the connection in both directions, so a peer blocked on a receive
/// raises PeerClosed instead of waiting forever. The root cause (see
/// root_cause) is rethrown on the caller thread. `server` runs as party
/// 0, `client` as party 1.
RunResult run_two_party(DuplexChannel& channel,
                        const std::function<void(Transport&)>& server,
                        const std::function<void(Transport&)>& client);

/// Of the two parties' failures, the one that caused the other: a party
/// whose peer died raises PeerClosed, so the error that is not
/// PeerClosed wins. Ties go to `first`. Null when neither party failed.
[[nodiscard]] std::exception_ptr root_cause(const std::exception_ptr& first,
                                            const std::exception_ptr& second);

}  // namespace c2pi::net
