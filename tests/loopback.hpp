#pragma once

// The TCP suites' two-endpoint harness: one loopback connection whose
// server and client ends are each driven by a test-supplied function.

#include <exception>
#include <thread>

#include "net/tcp.hpp"

namespace c2pi {

/// Each endpoint's ChannelStats once its function has returned.
struct LoopbackRun {
    net::ChannelStats server_stats, client_stats;
};

/// Run `server_fn` / `client_fn` as the two endpoints of one loopback TCP
/// connection (ephemeral port) and return each endpoint's final stats.
/// Exceptions from either thread are rethrown on the caller (server's
/// first, mirroring run_two_party).
template <typename ServerFn, typename ClientFn>
LoopbackRun run_loopback(ServerFn&& server_fn, ClientFn&& client_fn) {
    net::TcpListener listener(/*port=*/0);
    LoopbackRun run;
    std::exception_ptr server_error, client_error;

    std::thread server_thread([&] {
        try {
            auto t = listener.accept(/*timeout_ms=*/10'000);
            server_fn(*t);
            run.server_stats = t->stats();
            t->close();
        } catch (...) {
            server_error = std::current_exception();
        }
    });
    try {
        auto t = net::connect("127.0.0.1", listener.port(), /*timeout_ms=*/10'000);
        client_fn(*t);
        run.client_stats = t->stats();
        t->close();
    } catch (...) {
        client_error = std::current_exception();
    }
    server_thread.join();
    if (server_error) std::rethrow_exception(server_error);
    if (client_error) std::rethrow_exception(client_error);
    return run;
}

}  // namespace c2pi
