#pragma once

/// \file serving_pool.hpp
/// Concurrent multi-session serving over one shared const CompiledModel:
/// the library's one serving core.
///
/// A `ServingPool` owns N worker threads (a `core::WorkQueue`), each
/// serving whole sessions — artifact bootstrap, the crypto protocol, the
/// clear tail, stats, close — against ONE `const CompiledModel`, over
/// any `net::Transport`. Two front-ends feed it: the TCP accept loop
/// (examples/pi_server.cpp) hands it each handshaken socket, and
/// `pi::run_batch` (below) hands it one in-process transport per
/// request, so both get the same admission, drain and failure
/// accounting. Admission is bounded: once `workers +
/// queue_capacity` sessions are in flight, `serve()` refuses via
/// `Transport::refuse_busy` instead of letting an unbounded backlog
/// build. Over TCP that is the typed wire-level BUSY frame
/// (docs/PROTOCOL.md §5): the client's pending receive raises
/// `net::ServerBusy`, a "come back later" distinct from any protocol
/// failure.
///
/// Shutdown is a graceful drain: `drain()` refuses new sessions but runs
/// every accepted one to completion before the workers join — an
/// in-flight client never loses its inference.

#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/thread_pool.hpp"
#include "pi/bootstrap.hpp"
#include "pi/session.hpp"

namespace c2pi::pi {

/// Why a served session failed, classified at the worker boundary so
/// operators can tell dying clients from hostile ones from server bugs
/// (docs/PROTOCOL.md §9). The classification rule, in order:
///   - net::RecvTimeout            -> kTimeout (connected but silent)
///   - net::PeerClosed             -> kClientAbort (EOF/reset/clean goodbye
///                                    mid-protocol: the client went away)
///   - any other c2pi::Error       -> kProtocolViolation (malformed frame,
///                                    codec failure, illegal message)
///   - any other std::exception    -> kInternal (our bug, not the peer's)
enum class FailureClass : std::uint8_t {
    kClientAbort = 0,
    kProtocolViolation = 1,
    kTimeout = 2,
    kInternal = 3,
};
inline constexpr int kNumFailureClasses = 4;

/// Stable short name ("client-abort", "protocol-violation", "timeout",
/// "internal") for stats lines and logs.
[[nodiscard]] const char* failure_class_name(FailureClass c);

/// Apply the classification rule to a caught exception (call inside a
/// catch block; inspects the current exception via rethrow).
[[nodiscard]] FailureClass classify_failure(const std::exception& e);

class ServingPool {
public:
    struct Options {
        /// Sessions served concurrently. 0 = auto (env C2PI_THREADS if
        /// set, else hardware_concurrency; see core::resolve_thread_count).
        int workers = 0;
        /// Accepted-but-waiting connections beyond the busy workers;
        /// one more and serve() refuses (the BUSY frame over TCP).
        int queue_capacity = 8;
        /// Protocol recv timeout applied to every served transport, so a
        /// stalled client cannot hold a worker forever.
        int recv_timeout_ms = 120'000;
        /// Stricter one-shot deadline covering the session-bootstrap
        /// reads (want byte, first protocol frame): a client that
        /// connects and goes silent is shed in this long, not pinned
        /// against recv_timeout_ms holding an admission slot. Auto-
        /// promotes to recv_timeout_ms at the client's first DATA frame.
        int handshake_timeout_ms = 5'000;
    };

    /// Outcome of one served session, delivered to the `on_session`
    /// callback (serialized — callbacks never run concurrently) once the
    /// session's admission slot is free again.
    struct SessionReport {
        std::uint64_t index = 0;  ///< 1-based accept order
        PiStats stats;            ///< per-phase traffic + session wall time
        bool ok = false;
        std::string error;  ///< failure reason when !ok
        /// Failure taxonomy bucket (meaningful only when !ok).
        FailureClass failure = FailureClass::kInternal;
        /// The failure itself (null when ok), for callers that rethrow it.
        std::exception_ptr exception;
        /// Bootstrap resume: the client already held this artifact and
        /// shipment was skipped (docs/PROTOCOL.md §3).
        bool artifact_from_cache = false;
    };

    /// Aggregate serving statistics (snapshot; monotonic counters).
    struct Stats {
        std::uint64_t accepted = 0;  ///< transports handed to serve()
        std::uint64_t served = 0;    ///< sessions completed cleanly
        std::uint64_t rejected = 0;  ///< refused via refuse_busy
        std::uint64_t failed = 0;    ///< sessions that raised mid-protocol
        /// failed, broken down by FailureClass (index with
        /// static_cast<int>(FailureClass)); sums to `failed`.
        std::uint64_t failed_by_class[kNumFailureClasses] = {};
        /// Sessions whose client held the artifact already (digest hit).
        std::uint64_t artifact_skips = 0;
        int active = 0;              ///< sessions running right now
        int concurrent_peak = 0;     ///< max simultaneous sessions so far
        /// Summed per-phase traffic of served sessions; wall_seconds is
        /// the sum of per-session wall times (busy-seconds, not uptime).
        PiStats traffic;
    };

    /// The pool serializes the model's artifact once; every session
    /// ships the same bytes. `on_session` (optional) observes each
    /// session's outcome — pi_server uses it for per-client log lines.
    ServingPool(const CompiledModel& model, SessionConfig config, Options options,
                std::function<void(const SessionReport&)> on_session = {});
    /// Drains: blocks until every accepted session completed.
    ~ServingPool();

    ServingPool(const ServingPool&) = delete;
    ServingPool& operator=(const ServingPool&) = delete;

    /// Hand one connected server-side (party 0) transport to the pool.
    /// Returns true if admitted — the session will run to completion on
    /// a worker even if drain() is called right after. Returns false if
    /// the pool is saturated or draining: the transport is refused
    /// (refuse_busy) before returning.
    [[nodiscard]] bool serve(std::unique_ptr<net::Transport> transport);

    /// Graceful shutdown: refuse new sessions, finish queued and
    /// in-flight ones, join the workers. Idempotent.
    void drain();

    [[nodiscard]] Stats stats() const;
    /// Resolved worker count (Options::workers after auto-detection).
    [[nodiscard]] int workers() const { return queue_.workers(); }

private:
    /// Run one session and fold it into the stats; the caller delivers
    /// the returned report to on_session_.
    [[nodiscard]] SessionReport serve_one(net::Transport& transport, std::uint64_t index) noexcept;

    const ServerSession session_;  ///< stateless; shared by all workers
    const std::vector<std::uint8_t> artifact_bytes_;
    const ArtifactDigest artifact_digest_;  ///< SHA-256 of artifact_bytes_
    const Options options_;
    const std::function<void(const SessionReport&)> on_session_;

    mutable std::mutex mutex_;  ///< guards the Stats fields below
    Stats stats_;
    std::mutex report_mutex_;  ///< serializes on_session_ callbacks

    core::WorkQueue queue_;  ///< last member: workers stop before the rest dies
};

struct BatchResult {
    /// One per input, in order. A request's `stats.wall_seconds` is its
    /// client's end-to-end latency inside the batch, where it shares the
    /// CPU with its sibling requests. Use `aggregate` for the joint cost
    /// of the batch.
    std::vector<PiResult> results;
    PiStats aggregate;  ///< summed traffic, joint wall time
};

/// Serve a batch of [1,C,H,W] inputs as in-process sessions on a
/// `ServingPool`: one pool worker and one client thread per request, the
/// client on the weightless path (artifact digest, then a ClientModel
/// shared by the whole batch). Every input is validated before any
/// session starts. Each request runs its own clear tail, exactly as a
/// single inference does. Requests run in groups of up to 64 to bound
/// the thread count. On failure the root cause is rethrown — the error
/// of whichever side did not raise net::PeerClosed.
[[nodiscard]] BatchResult run_batch(const CompiledModel& model, const SessionConfig& config,
                                    std::span<const Tensor> inputs);

}  // namespace c2pi::pi
