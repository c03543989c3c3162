// pi_client: the input owner's half of a real two-process deployment —
// a WEIGHTLESS client.
//
// Connects to a running pi_server over localhost TCP, runs the
// digest-first artifact bootstrap (docs/PROTOCOL.md §3) — receiving the
// public pi::ModelArtifact unless a previous run of this process cached
// it — compiles a pi::ClientModel, runs one or more private inferences
// with pi::ClientSession over net::TcpTransport, and prints the
// prediction plus the per-phase traffic accounting. The only
// model-derived data this process ever holds arrives via the wire
// artifact.
//
//   ./build/examples/pi_client [--host H] [--port P]
//                              [--backend delphi|cheetah] [--noise L]
//                              [--input-seed N] [--check --with-model]
//                              [--retries N] [--retry-backoff MS]
//                              [--runs N] [--pin HEXDIGEST] [--stall-ms MS]
//
// Exit codes (scripts depend on these — keep them stable):
//   0  success
//   1  --check audit failed (logits diverged from plaintext inference)
//   2  usage error
//   3  admission exhausted: every attempt ended in the server's typed
//      BUSY frame or a connect failure (load shedding, not a bug;
//      --retries N with capped-exponential backoff spreads attempts)
//   4  protocol failure (peer closed mid-protocol, recv timeout, codec
//      violation) — by the §9 safety rule these are NEVER auto-retried:
//      a run that may have sent input-dependent traffic must restart,
//      not resume
//   5  artifact swap detected: the server's announced digest does not
//      match --pin (or a digest learned by an earlier --runs iteration)
//
// --runs N performs N inferences over N sessions sharing one
// pi::ArtifactCache: the first run ships the artifact, later runs
// advertise its digest and resume weightless with zero artifact bytes
// ("artifact cache hit"). Each run pins the digest of the first, so a
// server swap mid-sequence exits 5. --stall-ms is a chaos hook: sleep
// that long after connecting before the bootstrap reply, to exercise the
// server's handshake deadline from the outside (scripts/smoke_chaos.sh).
//
// Peer binary: examples/pi_server.cpp. Wire format: docs/PROTOCOL.md.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/stopwatch.hpp"
#include "net/tcp.hpp"
#include "pi/bootstrap.hpp"
#include "pi/retry.hpp"
#include "remote_common.hpp"

int main(int argc, char** argv) {
    using namespace c2pi;

    demo::RemoteOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (!demo::parse_remote_flag(argc, argv, i, opts)) {
            std::fprintf(stderr,
                         "usage: pi_client [--host H] [--port P]\n"
                         "                 [--model demo|alexnet|vgg16|vgg19|resnet9|resnet18]\n"
                         "                 [--backend delphi|cheetah] [--nonlinear gc|ot|fss]\n"
                         "                 [--noise L] [--input-seed N]\n"
                         "                 [--check --with-model]\n"
                         "                 [--retries N] [--retry-backoff MS] [--runs N]\n"
                         "                 [--pin HEXDIGEST] [--stall-ms MS]\n");
            return 2;
        }
    }
    if (opts.check && !opts.with_model) {
        std::fprintf(stderr,
                     "pi_client: --check needs a local reference model to compare against; "
                     "pass --with-model to opt into holding the demo weights\n");
        return 2;
    }
    if (opts.retries < 1 || opts.runs < 1) {
        std::fprintf(stderr, "pi_client: --retries and --runs must be >= 1\n");
        return 2;
    }

    pi::RetryPolicy policy;
    policy.max_attempts = opts.retries;
    policy.initial_backoff_ms = opts.retry_backoff_ms;
    policy.jitter_seed = opts.input_seed;  // deterministic per client identity

    pi::ArtifactCache cache;
    std::optional<pi::ArtifactDigest> pinned;
    if (!opts.pin.empty()) {
        try {
            pinned = pi::digest_from_hex(opts.pin);
        } catch (const Error& e) {
            std::fprintf(stderr, "pi_client: bad --pin value: %s\n", e.what());
            return 2;
        }
    }

    for (int run_index = 0; run_index < opts.runs; ++run_index) {
        try {
            const auto outcome = pi::with_admission_retry(policy, [&] {
                std::printf("connecting to %s:%u ...\n", opts.host.c_str(), opts.port);
                auto transport = net::connect(opts.host, opts.port, /*timeout_ms=*/30'000);
                transport->set_recv_timeout(120'000);
                if (opts.stall_ms > 0)  // chaos hook: look like a bootstrap laggard
                    std::this_thread::sleep_for(std::chrono::milliseconds(opts.stall_ms));

                // Digest-first bootstrap: a cache hit resumes weightless
                // with zero artifact bytes; a pin mismatch is a typed
                // ArtifactSwap before any protocol traffic.
                const pi::Bootstrap boot = pi::fetch_artifact(*transport, &cache, pinned);
                const pi::ModelArtifact& artifact = boot.model->artifact();
                if (boot.from_cache) {
                    std::printf("artifact cache hit (%s...): resumed weightless, 0 bytes shipped\n",
                                pi::digest_hex(boot.digest).substr(0, 16).c_str());
                } else {
                    std::printf(
                        "model artifact: %zu bytes, digest %s... "
                        "(%lld crypto + %lld clear linear ops, %s)   "
                        "nonlinear backend: %s\n",
                        artifact.serialize().size(),
                        pi::digest_hex(boot.digest).substr(0, 16).c_str(),
                        static_cast<long long>(artifact.crypto_linear_ops()),
                        static_cast<long long>(artifact.hidden_linear_ops()),
                        artifact.full_pi ? "full PI" : "crypto-clear",
                        opts.session.nonlinear.has_value()
                            ? pi::nonlinear_name(*opts.session.nonlinear)
                            : "server's choice");
                }
                const pi::ClientSession session(*boot.model, opts.session);

                // The input shape, too, comes from the artifact — nothing
                // about the deployment is hard-coded into this binary.
                Shape input_shape{1};
                input_shape.insert(input_shape.end(), artifact.input_chw.begin(),
                                   artifact.input_chw.end());
                Rng input_rng(opts.input_seed + static_cast<std::uint64_t>(run_index));
                const Tensor input = Tensor::uniform(input_shape, input_rng, 0.0F, 1.0F);

                Stopwatch watch;
                Tensor logits = session.run(*transport, input);
                auto stats = pi::stats_from_transport(*transport);
                stats.wall_seconds = watch.seconds();
                transport->close();
                return std::make_tuple(std::move(logits), stats, boot.digest, input);
            });
            const auto& [logits, stats, digest, input] = outcome;
            pinned = digest;  // later runs must see the same model

            std::int64_t predicted = 0;
            for (std::int64_t j = 1; j < logits.dim(1); ++j)
                if (logits[j] > logits[predicted]) predicted = j;
            std::printf("predicted class: %lld   (%.3f s end-to-end)\n",
                        static_cast<long long>(predicted), stats.wall_seconds);
            demo::print_stats(stats);

            if (opts.check) {
                // Opt-in audit path (--with-model): reconstruct the served
                // model locally and compare against plaintext inference.
                // The weights exist only on this side branch — the
                // protocol above never saw them. --model must match the
                // server's choice for the audit to be meaningful.
                const nn::Graph model = demo::make_remote_model(opts.model);
                const Tensor want = model.infer(input);
                float max_diff = 0.0F;
                for (std::int64_t i = 0; i < want.numel(); ++i)
                    max_diff = std::max(max_diff, std::fabs(logits[i] - want[i]));
                const float tolerance = 0.05F + opts.session.noise_lambda;
                if (!(max_diff <= tolerance)) {
                    std::printf("CHECK FAILED: max |logit delta| = %.4f > %.4f\n", max_diff,
                                tolerance);
                    return 1;
                }
                std::printf("CHECK OK: max |logit delta| = %.4f\n", max_diff);
            }
        } catch (const pi::ArtifactSwap& e) {
            std::fprintf(stderr, "pi_client: %s\n", e.what());
            return 5;
        } catch (const net::ServerBusy& e) {
            std::fprintf(stderr, "pi_client: admission exhausted after %d attempts: %s\n",
                         opts.retries, e.what());
            return 3;
        } catch (const net::ConnectFailed& e) {
            std::fprintf(stderr, "pi_client: admission exhausted after %d attempts: %s\n",
                         opts.retries, e.what());
            return 3;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "pi_client: protocol failure (not retried — restart the "
                                 "inference): %s\n",
                         e.what());
            return 4;
        }
    }
    return 0;
}
