// Fault-injection suite: seeded chaos schedules against a live
// ServingPool must be CONTAINED — every failure lands in the typed
// class taxonomy, no admission slot leaks, and a clean follow-up client
// gets logits bit-identical to a fault-free run. Plus unit coverage for
// the deterministic RetryPolicy backoff, the FaultSchedule replay
// guarantee, the in-proc abort semantics, and the digest-first
// resumable bootstrap (cache skip, pin mismatch, commitment check).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <thread>
#include <vector>

#include "net/channel.hpp"
#include "net/faulty.hpp"
#include "net/tcp.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "pi/bootstrap.hpp"
#include "pi/retry.hpp"
#include "pi/serving_pool.hpp"

namespace c2pi::pi {
namespace {

using namespace std::chrono_literals;

/// Smallest model with real conv/ReLU/FC coverage and a crypto-clear
/// boundary: chaos needs MANY sessions, so each must be cheap even
/// under TSan.
nn::Sequential make_tiny_model(std::uint64_t seed = 3) {
    Rng rng(seed);
    nn::Sequential m;
    m.emplace<nn::Conv2d>(3, 2, ops::ConvSpec{.kernel = 3, .stride = 2, .pad = 1}, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::Flatten>();
    m.emplace<nn::Linear>(2 * 4 * 4, 8, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::Linear>(8, 4, rng);
    return m;
}

CompiledModel::Options tiny_options() {
    CompiledModel::Options opts;
    opts.input_chw = {3, 8, 8};
    opts.he_ring_degree = 1024;
    opts.boundary = nn::CutPoint{.linear_index = 1, .after_relu = true};
    return opts;
}

Tensor tiny_input(std::uint64_t seed = 100) {
    Rng rng(seed);
    return Tensor::uniform({1, 3, 8, 8}, rng, 0.0F, 1.0F);
}

/// Session reports in completion order, waitable so tests can block on
/// "the N-th session finished" instead of sleeping.
struct ReportLog {
    std::mutex m;
    std::condition_variable cv;
    std::vector<ServingPool::SessionReport> reports;

    void push(const ServingPool::SessionReport& r) {
        {
            const std::lock_guard<std::mutex> lock(m);
            reports.push_back(r);
        }
        cv.notify_all();
    }
    [[nodiscard]] ServingPool::SessionReport wait_for(std::size_t count) {
        std::unique_lock<std::mutex> lock(m);
        const bool arrived = cv.wait_for(lock, 60s, [&] { return reports.size() >= count; });
        require(arrived, "timed out waiting for a session report");
        return reports[count - 1];
    }
};

/// A live pool behind its own accept loop: the shape of pi_server,
/// in-process. Handshake failures never kill the loop (a port scanner
/// must not take the server down).
class PoolHarness {
public:
    PoolHarness(const CompiledModel& model, SessionConfig config, ServingPool::Options opts)
        : log_(std::make_shared<ReportLog>()),
          pool_(model, config, opts,
                [log = log_](const ServingPool::SessionReport& r) { log->push(r); }),
          listener_(0),
          accept_thread_([this] { loop(); }) {}

    ~PoolHarness() { stop(); }

    void stop() {
        if (stopped_.exchange(true)) return;
        accept_thread_.join();
        pool_.drain();
    }

    [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
    [[nodiscard]] ServingPool& pool() { return pool_; }
    [[nodiscard]] ReportLog& log() { return *log_; }

private:
    void loop() {
        while (!stopped_.load()) {
            try {
                auto transport = listener_.try_accept(/*timeout_ms=*/50);
                if (transport) (void)pool_.serve(std::move(transport));
            } catch (const std::exception&) {  // failed handshake; keep accepting
            }
        }
    }

    std::shared_ptr<ReportLog> log_;
    ServingPool pool_;
    net::TcpListener listener_;
    std::atomic<bool> stopped_{false};
    std::thread accept_thread_;
};

/// One weightless client run through a FaultyTransport (empty schedule
/// = clean). Never throws: chaos outcomes are data, not aborts.
struct ClientOutcome {
    bool ok = false;
    Tensor logits;
    bool from_cache = false;
    std::string error;
    std::size_t ops = 0;  ///< transport ops executed (schedule address space)
};

ClientOutcome run_client(std::uint16_t port, const SessionConfig& config, const Tensor& input,
                         ArtifactCache* cache, const net::FaultSchedule& schedule = {}) {
    ClientOutcome out;
    std::unique_ptr<net::TcpTransport> tcp;
    try {
        tcp = net::connect("127.0.0.1", port, /*timeout_ms=*/30'000);
    } catch (const std::exception& e) {
        out.error = e.what();
        return out;
    }
    tcp->set_recv_timeout(30'000);
    net::FaultyTransport faulty(*tcp, schedule);
    try {
        const Bootstrap boot = fetch_artifact(faulty, cache);
        out.from_cache = boot.from_cache;
        const ClientSession session(*boot.model, config);
        out.logits = session.run(faulty, input);
        out.ok = true;
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    out.ops = faulty.ops_seen();
    tcp->close();
    return out;
}

// ------------------------------------------------------------ chaos matrix ---

TEST(FaultInjection, ChaosMatrixIsContainedAndClassified) {
    const nn::Sequential model = make_tiny_model();
    const CompiledModel compiled(model, tiny_options());
    const SessionConfig config{.seed = 21};
    const Tensor input = tiny_input();
    const Tensor reference = run_private_inference(compiled, config, input).logits;

    PoolHarness harness(compiled, config,
                        {.workers = 2,
                         .queue_capacity = 2,
                         .recv_timeout_ms = 30'000,
                         .handshake_timeout_ms = 5'000});
    ArtifactCache cache;
    std::size_t session_count = 0;
    const auto next_report = [&] { return harness.log().wait_for(++session_count); };

    // Cold clean run ships the artifact and warms the cache, so every
    // later run (faulty or not) has the SAME op sequence.
    {
        const auto cold = run_client(harness.port(), config, input, &cache);
        ASSERT_TRUE(cold.ok) << cold.error;
        EXPECT_FALSE(cold.from_cache);
        EXPECT_TRUE(next_report().ok);
    }
    // Counting pass: learn the warm-cache op count to address the sweep.
    std::size_t total_ops = 0;
    {
        const auto counting = run_client(harness.port(), config, input, &cache);
        ASSERT_TRUE(counting.ok) << counting.error;
        EXPECT_TRUE(counting.from_cache);
        EXPECT_TRUE(counting.logits.allclose(reference, 0.0F));
        EXPECT_TRUE(next_report().ok);
        total_ops = counting.ops;
    }
    ASSERT_GE(total_ops, 6U) << "tiny session has implausibly few transport ops";

    // -- disconnect sweep: crashed-client shape at chosen phases -----------
    // Early ops (bootstrap) are deterministic client-aborts: the server
    // has protocol left to run, so it MUST observe the disconnect.
    const std::size_t kDeterministic = 4;  // ops 0..3 span bootstrap + setup
    std::vector<std::size_t> disconnect_ops = {0, 1, 2, 3, total_ops / 2, total_ops - 2};
    for (std::size_t i = 0; i < disconnect_ops.size(); ++i) {
        net::FaultSchedule schedule(
            {{.kind = net::FaultKind::kDisconnect, .op = net::FaultOp::kAny,
              .at_op = disconnect_ops[i]}});
        const auto outcome = run_client(harness.port(), config, input, &cache, schedule);
        EXPECT_FALSE(outcome.ok) << "disconnect at op " << disconnect_ops[i];
        const auto report = next_report();
        if (i < kDeterministic) {
            EXPECT_FALSE(report.ok);
            EXPECT_EQ(report.failure, FailureClass::kClientAbort)
                << "disconnect at op " << disconnect_ops[i] << " classified as "
                << failure_class_name(report.failure) << ": " << report.error;
        }
        // Late disconnects may race a completed server session — either
        // way the failure (if any) must still be a client abort.
        if (!report.ok) EXPECT_EQ(report.failure, FailureClass::kClientAbort);
    }

    // -- truncation: transport-clean frames the codec must reject ----------
    // Op 1 is the client's 1-byte want reply; truncating it to empty is a
    // deterministic protocol violation on the server.
    {
        net::FaultSchedule schedule({{.kind = net::FaultKind::kTruncate,
                                      .op = net::FaultOp::kSend,
                                      .at_op = 1,
                                      .param = 0}});
        const auto outcome = run_client(harness.port(), config, input, &cache, schedule);
        EXPECT_FALSE(outcome.ok);
        const auto report = next_report();
        EXPECT_FALSE(report.ok);
        EXPECT_EQ(report.failure, FailureClass::kProtocolViolation)
            << failure_class_name(report.failure) << ": " << report.error;
    }
    // Mid-protocol sends: whichever of these ops is a client send gets a
    // 2-byte frame. Containment is asserted; the class (when the fault
    // fired) must be a protocol violation or the resulting client abort.
    for (const std::size_t op : {std::size_t{3}, std::size_t{4}}) {
        net::FaultSchedule schedule({{.kind = net::FaultKind::kTruncate,
                                      .op = net::FaultOp::kSend,
                                      .at_op = op,
                                      .param = 2}});
        (void)run_client(harness.port(), config, input, &cache, schedule);
        const auto report = next_report();
        if (!report.ok)
            EXPECT_TRUE(report.failure == FailureClass::kProtocolViolation ||
                        report.failure == FailureClass::kClientAbort)
                << failure_class_name(report.failure) << ": " << report.error;
    }

    // -- corruption: semi-honest protocols may not even notice -------------
    // A flipped digest announcement IS deterministic: the client detects
    // the broken commitment and walks away (server sees a client abort).
    {
        net::FaultSchedule schedule({{.kind = net::FaultKind::kCorrupt,
                                      .op = net::FaultOp::kRecv,
                                      .at_op = 0,
                                      .param = 5}});
        const auto outcome = run_client(harness.port(), config, input, &cache, schedule);
        EXPECT_FALSE(outcome.ok);
        const auto report = next_report();
        EXPECT_FALSE(report.ok);
        EXPECT_EQ(report.failure, FailureClass::kClientAbort)
            << failure_class_name(report.failure) << ": " << report.error;
    }
    // Mid-protocol payload corruption: random ring data often decodes
    // fine, so only containment is asserted — never a specific class.
    {
        net::FaultSchedule schedule({{.kind = net::FaultKind::kCorrupt,
                                      .op = net::FaultOp::kAny,
                                      .at_op = total_ops / 2,
                                      .param = 3}});
        (void)run_client(harness.port(), config, input, &cache, schedule);
        (void)next_report();
    }

    // -- seeded sweep: replayable grab-bag over the kind x op grid ---------
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto schedule = net::FaultSchedule::from_seed(seed, total_ops);
        (void)run_client(harness.port(), config, input, &cache, schedule);
        (void)next_report();
    }

    // -- containment invariants after the storm ----------------------------
    // A clean client on the same pool still gets bit-identical logits...
    {
        const auto clean = run_client(harness.port(), config, input, &cache);
        ASSERT_TRUE(clean.ok) << clean.error;
        EXPECT_TRUE(clean.from_cache);
        EXPECT_TRUE(clean.logits.allclose(reference, 0.0F))
            << "post-chaos client diverged from the fault-free run";
        EXPECT_TRUE(next_report().ok);
    }
    harness.stop();
    const auto stats = harness.pool().stats();
    EXPECT_EQ(stats.accepted, session_count);
    EXPECT_EQ(stats.rejected, 0U) << "a leaked admission slot would surface as BUSY here";
    EXPECT_EQ(stats.active, 0);
    EXPECT_EQ(stats.served + stats.failed, stats.accepted);
    std::uint64_t classified = 0;
    for (const std::uint64_t n : stats.failed_by_class) classified += n;
    EXPECT_EQ(classified, stats.failed) << "every failure must land in exactly one class";
    EXPECT_GE(stats.failed_by_class[static_cast<int>(FailureClass::kClientAbort)], 5U);
    EXPECT_GE(stats.failed_by_class[static_cast<int>(FailureClass::kProtocolViolation)], 1U);
    EXPECT_GE(stats.artifact_skips, 5U);  // warm-cache sessions resumed weightless
}

// ------------------------------------------------ handshake-phase laggards ---

TEST(FaultInjection, HandshakeDeadlineShedsConnectThenSilentClient) {
    const nn::Sequential model = make_tiny_model();
    const CompiledModel compiled(model, tiny_options());
    const SessionConfig config{.seed = 23};
    const Tensor input = tiny_input();

    // ONE worker, zero queue, a 2-minute steady timeout and a 400 ms
    // bootstrap deadline: the regression this pins is a connect-then-
    // silent client holding the only admission slot for the FULL steady
    // timeout.
    PoolHarness harness(compiled, config,
                        {.workers = 1,
                         .queue_capacity = 0,
                         .recv_timeout_ms = 120'000,
                         .handshake_timeout_ms = 400});

    const auto start = std::chrono::steady_clock::now();
    std::thread silent([&] {
        // Completes the wire handshake (net::connect does) and then says
        // nothing — the shape of a port prober or a client that died
        // right after connecting.
        auto transport = net::connect("127.0.0.1", harness.port(), 10'000);
        std::this_thread::sleep_for(2500ms);
        transport->close();
    });
    const auto report = harness.log().wait_for(1);
    const auto shed_after = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.failure, FailureClass::kTimeout)
        << failure_class_name(report.failure) << ": " << report.error;
    // Shed on the bootstrap deadline (plus the bounded close-drain), not
    // pinned against the 2-minute protocol timeout.
    EXPECT_LT(shed_after, 10s);

    // The slot is free again: a real client is served immediately.
    ArtifactCache cache;
    const auto clean = run_client(harness.port(), config, input, &cache);
    EXPECT_TRUE(clean.ok) << clean.error;
    silent.join();
    harness.stop();
    const auto stats = harness.pool().stats();
    EXPECT_EQ(stats.active, 0);
    EXPECT_EQ(stats.served, 1U);
    EXPECT_EQ(stats.failed_by_class[static_cast<int>(FailureClass::kTimeout)], 1U);
}

// ----------------------------------------------------- BUSY-storm retries ---

TEST(FaultInjection, RetryPolicyOutlastsBusyStormWhilePolicyFreeClientFailsFast) {
    const nn::Sequential model = make_tiny_model();
    const CompiledModel compiled(model, tiny_options());
    const SessionConfig config{.seed = 29};
    const Tensor input = tiny_input();
    const Tensor reference = run_private_inference(compiled, config, input).logits;

    PoolHarness harness(compiled, config, {.workers = 1, .queue_capacity = 0});
    ArtifactCache cache;

    // Occupy the only slot: a client whose schedule sleeps mid-protocol.
    std::thread holder([&] {
        net::FaultSchedule schedule({{.kind = net::FaultKind::kDelay,
                                      .op = net::FaultOp::kAny,
                                      .at_op = 4,
                                      .param = 2'000}});
        const auto outcome = run_client(harness.port(), config, input, &cache, schedule);
        EXPECT_TRUE(outcome.ok) << outcome.error;  // a delay is not a failure
    });
    // Wait until the holder's session actually occupies the worker.
    while (harness.pool().stats().active < 1) std::this_thread::sleep_for(10ms);

    // Policy-free client: fails fast with the typed BUSY.
    {
        auto transport = net::connect("127.0.0.1", harness.port(), 10'000);
        transport->set_recv_timeout(10'000);
        EXPECT_THROW((void)fetch_artifact(*transport, nullptr), net::ServerBusy);
        transport->close();
    }

    // Policy client: retries through the storm and succeeds once the
    // holder finishes.
    RetryPolicy policy;
    policy.max_attempts = 30;
    policy.initial_backoff_ms = 100;
    policy.max_backoff_ms = 400;
    policy.jitter_seed = 7;
    int attempts = 0;
    const Tensor logits = with_admission_retry(policy, [&]() -> Tensor {
        ++attempts;
        auto transport = net::connect("127.0.0.1", harness.port(), 10'000);
        transport->set_recv_timeout(30'000);
        const Bootstrap boot = fetch_artifact(*transport, &cache);
        const ClientSession session(*boot.model, config);
        Tensor out = session.run(*transport, input);
        transport->close();
        return out;
    });
    EXPECT_GT(attempts, 1) << "the storm should have forced at least one retry";
    EXPECT_TRUE(logits.allclose(reference, 0.0F));

    holder.join();
    harness.stop();
    const auto stats = harness.pool().stats();
    EXPECT_GE(stats.rejected, 2U);  // the fast-fail client + >=1 policy attempt
    EXPECT_EQ(stats.served, 2U);    // holder + the policy client's final attempt
}

// ------------------------------------------------------ resumable bootstrap ---

TEST(FaultInjection, DigestCacheSkipsSecondShipmentAcrossReconnects) {
    const nn::Sequential model = make_tiny_model();
    const CompiledModel compiled(model, tiny_options());
    const SessionConfig config{.seed = 37};
    const Tensor input = tiny_input();
    const Tensor reference = run_private_inference(compiled, config, input).logits;

    PoolHarness harness(compiled, config, {.workers = 1, .queue_capacity = 1});
    ArtifactCache cache;

    const auto first = run_client(harness.port(), config, input, &cache);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.from_cache);
    const auto second = run_client(harness.port(), config, input, &cache);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.from_cache) << "reconnect should resume from the digest cache";
    // The resumed session is a real session: same transcript, same logits.
    EXPECT_TRUE(first.logits.allclose(reference, 0.0F));
    EXPECT_TRUE(second.logits.allclose(reference, 0.0F));
    // The cached path executes fewer transport ops (no artifact frame).
    EXPECT_LT(second.ops, first.ops);
    EXPECT_EQ(cache.size(), 1U);

    harness.stop();
    EXPECT_EQ(harness.pool().stats().artifact_skips, 1U);
}

TEST(FaultInjection, PinnedDigestDetectsMidAirArtifactSwap) {
    const nn::Sequential model = make_tiny_model();
    // Two servers whose PUBLIC halves differ (the pin is about model
    // identity, which weights alone cannot change).
    auto options_b = tiny_options();
    options_b.boundary = std::nullopt;  // full PI: a different artifact
    const CompiledModel compiled_a(model, tiny_options());
    const std::vector<std::uint8_t> bytes_a = compiled_a.artifact().serialize();
    const std::vector<std::uint8_t> bytes_b =
        CompiledModel(model, options_b).artifact().serialize();
    const ArtifactDigest digest_a = digest_of(bytes_a);
    const ArtifactDigest digest_b = digest_of(bytes_b);
    ASSERT_NE(digest_a, digest_b);

    // Server B ships its artifact; the client pinned server A's digest.
    net::DuplexChannel channel;
    net::InProcTransport server(channel, 0);
    net::InProcTransport client(channel, 1);
    std::thread server_thread([&] {
        // The swapped-out client walks away without the want byte; the
        // server must see an ordinary client abort, not a hang.
        EXPECT_THROW((void)ship_artifact(server, bytes_b, digest_b), net::PeerClosed);
    });
    EXPECT_THROW((void)fetch_artifact(client, nullptr, digest_a), ArtifactSwap);
    client.abort_connection();
    server_thread.join();
}

TEST(FaultInjection, ShippedBytesMustMatchAnnouncedDigest) {
    const nn::Sequential model = make_tiny_model();
    const CompiledModel compiled(model, tiny_options());
    std::vector<std::uint8_t> bytes = compiled.artifact().serialize();
    const ArtifactDigest announced = digest_of(bytes);
    bytes.back() ^= 0x01;  // ship something else than was announced

    net::DuplexChannel channel;
    net::InProcTransport server(channel, 0);
    net::InProcTransport client(channel, 1);
    std::thread server_thread([&] {
        server.send_artifact_bytes(announced);
        const auto want = server.recv_artifact_bytes();
        EXPECT_EQ(want.size(), 1U);
        server.send_artifact_bytes(bytes);
    });
    try {
        (void)fetch_artifact(client, nullptr);
        FAIL() << "a broken digest commitment must not compile";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("announced digest"), std::string::npos);
    }
    server_thread.join();
}

// -------------------------------------------------- in-proc abort parity ---

TEST(FaultInjection, InProcAbortDeliversQueuedMessagesThenRaisesPeerClosed) {
    net::DuplexChannel channel;
    net::InProcTransport a(channel, 0);
    net::InProcTransport b(channel, 1);
    const std::vector<std::uint8_t> msg = {1, 2, 3};
    a.send_bytes(msg);
    a.abort_connection();
    // FIN-like: what was sent before the abort still delivers...
    EXPECT_EQ(b.recv_bytes(), msg);
    // ...then both ends observe the crashed-peer shape.
    EXPECT_THROW((void)b.recv_bytes(), net::PeerClosed);
    EXPECT_THROW((void)a.recv_bytes(), net::PeerClosed);
}

// ----------------------------------------------------- schedule replayability ---

TEST(FaultInjection, FaultScheduleIsDeterministicAndDirectionFiltered) {
    const auto s1 = net::FaultSchedule::from_seed(99, 40);
    const auto s2 = net::FaultSchedule::from_seed(99, 40);
    ASSERT_EQ(s1.faults().size(), 1U);
    EXPECT_EQ(s1.faults()[0].kind, s2.faults()[0].kind);
    EXPECT_EQ(s1.faults()[0].at_op, s2.faults()[0].at_op);
    EXPECT_EQ(s1.faults()[0].param, s2.faults()[0].param);
    EXPECT_LT(s1.faults()[0].at_op, 40U);

    net::FaultSchedule schedule({{.kind = net::FaultKind::kTruncate,
                                  .op = net::FaultOp::kSend,
                                  .at_op = 7,
                                  .param = 1}});
    EXPECT_FALSE(schedule.match(7, net::FaultOp::kRecv).has_value());
    EXPECT_TRUE(schedule.match(7, net::FaultOp::kSend).has_value());
    EXPECT_FALSE(schedule.match(6, net::FaultOp::kSend).has_value());
}

// ------------------------------------------------------- retry policy unit ---

TEST(FaultInjection, RetryBackoffIsDeterministicCappedAndJittered) {
    RetryPolicy policy;
    policy.initial_backoff_ms = 100;
    policy.max_backoff_ms = 800;
    policy.multiplier = 2.0;
    policy.jitter = 0.5;
    policy.jitter_seed = 42;
    policy.validate();

    EXPECT_EQ(policy.backoff_ms(1), 0);  // the first attempt never waits
    for (int attempt = 2; attempt <= 12; ++attempt) {
        const int d = policy.backoff_ms(attempt);
        const double cap =
            std::min(100.0 * std::pow(2.0, attempt - 2), 800.0);
        EXPECT_GE(d, static_cast<int>(cap * 0.5) - 1) << attempt;
        EXPECT_LE(d, static_cast<int>(cap)) << attempt;
        EXPECT_EQ(d, policy.backoff_ms(attempt)) << "backoff must be replayable";
    }
    // Different seeds decorrelate (at least one attempt differs).
    RetryPolicy other = policy;
    other.jitter_seed = 43;
    bool any_diff = false;
    for (int attempt = 2; attempt <= 12; ++attempt)
        any_diff |= other.backoff_ms(attempt) != policy.backoff_ms(attempt);
    EXPECT_TRUE(any_diff);

    RetryPolicy bad = policy;
    bad.max_attempts = 0;
    EXPECT_THROW(bad.validate(), Error);
    bad = policy;
    bad.jitter = 1.5;
    EXPECT_THROW(bad.validate(), Error);
    bad = policy;
    bad.max_backoff_ms = 10;  // below initial
    EXPECT_THROW(bad.validate(), Error);
}

TEST(FaultInjection, AdmissionRetryOnlyCatchesBusyAndConnectFailures) {
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.initial_backoff_ms = 1;  // keep the unit test fast
    policy.max_backoff_ms = 2;

    // BUSY twice, then success: retried to completion.
    int calls = 0;
    const int result = with_admission_retry(policy, [&] {
        if (++calls < 3) throw net::ServerBusy{};
        return 17;
    });
    EXPECT_EQ(result, 17);
    EXPECT_EQ(calls, 3);

    // ConnectFailed is retryable in the same way.
    calls = 0;
    (void)with_admission_retry(policy, [&] {
        if (++calls < 2) throw net::ConnectFailed("nobody listening");
        return 0;
    });
    EXPECT_EQ(calls, 2);

    // Exhaustion rethrows the final BUSY.
    calls = 0;
    EXPECT_THROW((void)with_admission_retry(policy,
                                            [&]() -> int {
                                                ++calls;
                                                throw net::ServerBusy{};
                                            }),
                 net::ServerBusy);
    EXPECT_EQ(calls, policy.max_attempts);

    // The safety rule, enforced in code: a mid-protocol failure shape
    // (PeerClosed, timeout, codec error) is NEVER auto-retried — the
    // closure runs exactly once.
    calls = 0;
    EXPECT_THROW((void)with_admission_retry(policy,
                                            [&]() -> int {
                                                ++calls;
                                                throw net::PeerClosed("mid-online EOF");
                                            }),
                 net::PeerClosed);
    EXPECT_EQ(calls, 1);
    calls = 0;
    EXPECT_THROW((void)with_admission_retry(policy,
                                            [&]() -> int {
                                                ++calls;
                                                throw net::RecvTimeout("stalled peer");
                                            }),
                 net::RecvTimeout);
    EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace c2pi::pi
