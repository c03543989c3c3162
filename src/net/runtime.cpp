#include "net/runtime.hpp"

#include <thread>

#include "core/stopwatch.hpp"

namespace c2pi::net {

namespace {
bool is_peer_closed(const std::exception_ptr& error) {
    try {
        std::rethrow_exception(error);
    } catch (const PeerClosed&) {
        return true;
    } catch (...) {
        return false;
    }
}
}  // namespace

std::exception_ptr root_cause(const std::exception_ptr& first, const std::exception_ptr& second) {
    if (first && second && is_peer_closed(first) && !is_peer_closed(second)) return second;
    return first ? first : second;
}

RunResult run_two_party(DuplexChannel& channel,
                        const std::function<void(Transport&)>& server,
                        const std::function<void(Transport&)>& client) {
    std::exception_ptr errors[2];
    Stopwatch watch;

    const auto party = [&](int id, const std::function<void(Transport&)>& body) {
        InProcTransport t(channel, id);
        try {
            body(t);
        } catch (...) {
            errors[id] = std::current_exception();
            t.abort_connection();
        }
    };
    std::thread server_thread(party, 0, std::cref(server));
    std::thread client_thread(party, 1, std::cref(client));
    server_thread.join();
    client_thread.join();

    if (auto error = root_cause(errors[0], errors[1])) std::rethrow_exception(error);

    RunResult result;
    result.wall_seconds = watch.seconds();
    result.stats = channel.stats();
    return result;
}

}  // namespace c2pi::net
