// pi_server: the model owner's half of a real two-process deployment —
// now a CONCURRENT server.
//
// Compiles the demo model ONCE into an immutable pi::CompiledModel, then
// listens on localhost TCP and hands every accepted connection to a
// pi::ServingPool: N worker sessions share the one const model, bounded
// queueing answers overload with the typed BUSY frame (the client sees
// net::ServerBusy, not a protocol error), and shutdown drains — every
// admitted session finishes. Each session starts by shipping the
// serialized public pi::ModelArtifact (plan, boundary, formats — no
// weights), so the peer pi_client runs weightless. Every session runs
// its own plaintext clear tail once its crypto layers reveal the
// boundary activation.
//
//   ./build/examples/pi_server [--port P] [--clients N] [--full-pi]
//                              [--backend delphi|cheetah] [--noise L]
//                              [--pool W] [--queue Q] [--handshake-timeout MS]
//
// Every session failure is classified at the worker boundary
// (client-abort / protocol-violation / timeout / internal, see
// docs/PROTOCOL.md §9) and counted per class in the final stats line;
// --handshake-timeout bounds how long a connected-but-silent client can
// hold an admission slot before it is shed as a timeout.
//
// --port 0 binds an ephemeral port (the "listening on" line reports the
// real one — scripts parse it). --clients 0 serves forever; SIGINT/
// SIGTERM then drains in-flight sessions and prints the aggregate pool
// stats before exiting. --pool 0 sizes the pool automatically
// (C2PI_THREADS / hardware_concurrency).
//
// Peer binary: examples/pi_client.cpp. Wire format: docs/PROTOCOL.md.

#include <atomic>
#include <csignal>
#include <cstdio>

#include "net/tcp.hpp"
#include "pi/serving_pool.hpp"
#include "remote_common.hpp"

namespace {

std::atomic<bool> g_stop{false};

void request_stop(int) { g_stop.store(true); }

void print_pool_stats(const c2pi::pi::ServingPool::Stats& s) {
    using c2pi::pi::FailureClass;
    std::printf("pool stats: served %llu sessions (%llu rejected, %llu failed), "
                "peak %d concurrent\n",
                static_cast<unsigned long long>(s.served),
                static_cast<unsigned long long>(s.rejected),
                static_cast<unsigned long long>(s.failed), s.concurrent_peak);
    if (s.failed > 0)
        std::printf("  failures by class: %llu client-abort, %llu protocol-violation, "
                    "%llu timeout, %llu internal\n",
                    static_cast<unsigned long long>(
                        s.failed_by_class[static_cast<int>(FailureClass::kClientAbort)]),
                    static_cast<unsigned long long>(
                        s.failed_by_class[static_cast<int>(FailureClass::kProtocolViolation)]),
                    static_cast<unsigned long long>(
                        s.failed_by_class[static_cast<int>(FailureClass::kTimeout)]),
                    static_cast<unsigned long long>(
                        s.failed_by_class[static_cast<int>(FailureClass::kInternal)]));
    if (s.artifact_skips > 0)
        std::printf("  artifact: %llu digest-cache skips (resumed bootstraps)\n",
                    static_cast<unsigned long long>(s.artifact_skips));
    c2pi::demo::print_stats(s.traffic);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace c2pi;

    demo::RemoteOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (!demo::parse_remote_flag(argc, argv, i, opts)) {
            std::fprintf(stderr,
                         "usage: pi_server [--port P] [--clients N] [--full-pi]\n"
                         "                 [--model demo|alexnet|vgg16|vgg19|resnet9|resnet18]\n"
                         "                 [--backend delphi|cheetah] [--nonlinear gc|ot|fss]\n"
                         "                 [--noise L] [--pool W] [--queue Q]\n"
                         "                 [--handshake-timeout MS]\n");
            return 2;
        }
    }

    nn::Graph model;
    try {
        model = demo::make_remote_model(opts.model);
    } catch (const nn::zoo::UnknownModel& e) {
        std::fprintf(stderr, "pi_server: %s\n", e.what());
        return 2;
    }
    const pi::CompiledModel compiled(
        model, demo::remote_compile_options(model, opts.model, opts.full_pi));
    std::printf("compiled %s model: %lld crypto + %lld clear linear ops\n",
                opts.full_pi ? "full-PI" : "crypto-clear",
                static_cast<long long>(compiled.crypto_linear_ops()),
                static_cast<long long>(compiled.hidden_linear_ops()));

    pi::ServingPool pool(
        compiled, opts.session,
        {.workers = opts.pool,
         .queue_capacity = opts.queue,
         .handshake_timeout_ms = opts.handshake_timeout_ms},
        [](const pi::ServingPool::SessionReport& r) {
            if (r.ok) {
                std::printf("served client %llu in %.3f s%s\n",
                            static_cast<unsigned long long>(r.index), r.stats.wall_seconds,
                            r.artifact_from_cache ? "   (artifact skipped: digest hit)" : "");
                demo::print_stats(r.stats);
            } else {
                std::fprintf(stderr, "client %llu failed [%s]: %s\n",
                             static_cast<unsigned long long>(r.index),
                             pi::failure_class_name(r.failure), r.error.c_str());
            }
            std::fflush(stdout);
        });
    std::printf("model artifact: %zu bytes   nonlinear backend: %s\n",
                compiled.artifact().serialize().size(),
                pi::nonlinear_name(pi::resolve_nonlinear(opts.session)));
    std::printf("serving pool: %d workers, queue %d\n", pool.workers(), opts.queue);

    net::TcpListener listener(opts.port, opts.host);
    std::printf("listening on %s:%u\n", opts.host.c_str(), listener.port());
    std::fflush(stdout);

    std::signal(SIGINT, request_stop);
    std::signal(SIGTERM, request_stop);

    // Finite --clients (the CI smoke case) treats an accept failure as
    // fatal so scripts see a nonzero exit; serve-forever logs and keeps
    // accepting (a port scanner failing the handshake must not take the
    // server down). Either way the pool drains before exit: admitted
    // sessions always finish.
    const bool forever = opts.clients <= 0;
    for (int accepted = 0; (forever || accepted < opts.clients) && !g_stop.load();) {
        try {
            // Short poll in forever mode so SIGINT/SIGTERM is honored
            // promptly; finite mode waits out the full smoke-test budget.
            auto transport = listener.try_accept(forever ? 250 : 120'000);
            if (!transport) {
                if (forever) continue;
                std::fprintf(stderr, "timed out waiting for client %d\n", accepted + 1);
                pool.drain();
                return 1;
            }
            ++accepted;
            (void)pool.serve(std::move(transport));  // rejection counted in stats
        } catch (const std::exception& e) {
            std::fprintf(stderr, "accept failed: %s\n", e.what());
            if (!forever) {
                pool.drain();
                return 1;
            }
        }
    }

    pool.drain();
    const auto stats = pool.stats();
    print_pool_stats(stats);
    std::fflush(stdout);
    // Finite mode promised to serve exactly --clients sessions; anything
    // the pool refused or that died mid-protocol breaks that promise.
    if (!forever && (stats.failed > 0 || stats.rejected > 0)) return 1;
    return 0;
}
