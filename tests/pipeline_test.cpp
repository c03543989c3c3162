// Pipelined-online-phase parity suite (compute/communication overlap):
// the claim is that pipelining is pure *scheduling* — chunked HE
// response streaming and the transport's writer-thread send queue
// change WHEN work happens, never what goes on the wire. Pinned here at
// three levels:
//
//  * session (in-process): pipeline on vs off across the full
//    {gc,ot,fss} x {Cheetah, Delphi, full-PI} matrix — bit-identical
//    logits, identical per-phase ChannelStats, and byte-identical
//    per-message wire payloads (every payload compared, not totals);
//  * transport (loopback TCP): the pipelined writer thread delivers the
//    exact frame sequence of the synchronous path with identical
//    enqueue-time accounting, a full pipelined session over TCP matches
//    the synchronous in-process reference, and blocked-recv time lands
//    in the wait bucket of the phase that was current at the call;
//  * serving (chaos): a client that dies MID-STREAM while the server's
//    pipelined response chunks are in flight is contained and
//    classified as a client abort by the ServingPool, and a clean
//    follow-up client gets logits bit-identical to a fault-free run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "net/faulty.hpp"
#include "net/runtime.hpp"
#include "net/tcp.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "pi/bootstrap.hpp"
#include "pi/serving_pool.hpp"
#include "pi/session.hpp"

namespace c2pi {
namespace {

using namespace std::chrono_literals;

/// Transport decorator that records every sent payload verbatim and
/// forwards the pipelined-send controls (parity_test.cpp idiom; over an
/// InProcTransport the controls are no-ops, so recording stays on the
/// protocol thread and is race-free even with pipelining on).
class RecordingTransport final : public net::Transport {
public:
    RecordingTransport(net::Transport& inner, std::vector<std::vector<std::uint8_t>>& sent)
        : Transport(inner.party_id()), inner_(&inner), sent_(&sent) {}

    void send_bytes(std::span<const std::uint8_t> data) override {
        sent_->emplace_back(data.begin(), data.end());
        inner_->set_phase(phase_);
        inner_->send_bytes(data);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_bytes() override { return inner_->recv_bytes(); }
    void recv_bytes_into(std::vector<std::uint8_t>& out) override {
        inner_->recv_bytes_into(out);
    }
    [[nodiscard]] net::ChannelStats stats() const override { return inner_->stats(); }
    [[nodiscard]] net::WaitStats wait_stats() const override { return inner_->wait_stats(); }
    void set_pipelined_sends(bool enabled) override { inner_->set_pipelined_sends(enabled); }
    void flush_sends() override { inner_->flush_sends(); }

    void send_artifact_bytes(std::span<const std::uint8_t> bytes) override {
        inner_->send_artifact_bytes(bytes);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_artifact_bytes() override {
        return inner_->recv_artifact_bytes();
    }
    void send_keys_bytes(std::span<const std::uint8_t> bytes) override {
        sent_->emplace_back(bytes.begin(), bytes.end());
        inner_->send_keys_bytes(bytes);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_keys_bytes() override {
        return inner_->recv_keys_bytes();
    }

private:
    net::Transport* inner_;
    std::vector<std::vector<std::uint8_t>>* sent_;
};

/// Cheap model with conv/ReLU/FC coverage (fault_test.cpp's topology):
/// the matrix below runs 18 full sessions, so each must be fast.
nn::Sequential tiny_model(std::uint64_t seed = 3) {
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

pi::CompiledModel::Options tiny_options(bool full_pi) {
    pi::CompiledModel::Options opts;
    opts.input_chw = {3, 8, 8};
    opts.he_ring_degree = 1024;
    if (!full_pi) opts.boundary = nn::CutPoint{.linear_index = 1, .after_relu = true};
    return opts;
}

Tensor tiny_input(std::uint64_t seed = 100) {
    Rng rng(seed);
    return Tensor::uniform({1, 3, 8, 8}, rng, 0.0F, 1.0F);
}

struct SessionTranscript {
    std::vector<std::vector<std::uint8_t>> server_sent, client_sent;
    Tensor logits;
    net::ChannelStats stats;
};

SessionTranscript run_session(const pi::CompiledModel& compiled, pi::SessionConfig config,
                              const Tensor& input, bool pipeline) {
    config.pipeline = pipeline;
    const pi::ServerSession server(compiled, config);
    const pi::ClientModel client_model(compiled.artifact(), compiled.num_threads());
    const pi::ClientSession client(client_model, config);
    SessionTranscript tr;
    net::DuplexChannel channel;
    (void)net::run_two_party(
        channel,
        [&](net::Transport& t) {
            RecordingTransport rec(t, tr.server_sent);
            server.run(rec);
        },
        [&](net::Transport& t) {
            RecordingTransport rec(t, tr.client_sent);
            tr.logits = client.run(rec, input);
        });
    tr.stats = channel.stats();
    return tr;
}

void expect_same_transcript(const SessionTranscript& sync, const SessionTranscript& piped,
                            const std::string& what) {
    ASSERT_TRUE(piped.logits.same_shape(sync.logits)) << what;
    EXPECT_TRUE(piped.logits.allclose(sync.logits, 0.0F))
        << what << ": pipelining changed the logits";
    EXPECT_EQ(piped.stats, sync.stats) << what << ": per-phase byte/flight stats diverged";
    ASSERT_EQ(piped.server_sent.size(), sync.server_sent.size())
        << what << ": server message count";
    ASSERT_EQ(piped.client_sent.size(), sync.client_sent.size())
        << what << ": client message count";
    for (std::size_t i = 0; i < sync.server_sent.size(); ++i)
        EXPECT_EQ(piped.server_sent[i], sync.server_sent[i])
            << what << ": server message " << i << " diverged";
    for (std::size_t i = 0; i < sync.client_sent.size(); ++i)
        EXPECT_EQ(piped.client_sent[i], sync.client_sent[i])
            << what << ": client message " << i << " diverged";
}

// ------------------------------------------------- session-level parity ---

TEST(PipelineParity, StreamingMatchesSynchronousAcrossBackendMatrix) {
    struct Cell {
        const char* name;
        pi::PiBackend backend;
        bool full_pi;
    };
    const Cell cells[] = {
        {"cheetah", pi::PiBackend::kCheetah, false},
        {"delphi", pi::PiBackend::kDelphi, false},
        {"full-pi", pi::PiBackend::kCheetah, true},
    };
    const mpc::NonlinearBackend nonlinears[] = {mpc::NonlinearBackend::kGarbledCircuit,
                                                mpc::NonlinearBackend::kOtMillionaire,
                                                mpc::NonlinearBackend::kFss};
    const nn::Sequential model = tiny_model();
    const Tensor input = tiny_input();
    for (const Cell& cell : cells) {
        // num_threads = 3 so the streamed HE responses come out of a real
        // parallel_for (the single-thread path would serialize anyway).
        auto opts = tiny_options(cell.full_pi);
        opts.num_threads = 3;
        const pi::CompiledModel compiled(model, opts);
        for (const auto nonlinear : nonlinears) {
            pi::SessionConfig config{.backend = cell.backend, .seed = 77};
            config.nonlinear = nonlinear;
            const std::string what =
                std::string(cell.name) + "/" + pi::nonlinear_name(nonlinear);
            const auto sync = run_session(compiled, config, input, /*pipeline=*/false);
            const auto piped = run_session(compiled, config, input, /*pipeline=*/true);
            ASSERT_GT(sync.server_sent.size(), 0U) << what;
            expect_same_transcript(sync, piped, what);
        }
    }
}

// ----------------------------------------------- transport-level parity ---

TEST(PipelineTransport, TcpWriterThreadPreservesFrameSequenceAndStats) {
    // The same message schedule over a synchronous and a pipelined
    // connection: the receiver must observe identical frames in order,
    // and the sender's enqueue-time accounting must match byte for byte
    // even with a phase flip mid-stream while frames are still queued.
    const auto run_one = [](bool pipelined) {
        net::TcpListener listener(/*port=*/0);
        std::vector<std::vector<std::uint8_t>> received;
        std::thread server_thread([&] {
            auto t = listener.accept(/*timeout_ms=*/10'000);
            t->set_recv_timeout(10'000);
            for (int i = 0; i < 6; ++i) received.push_back(t->recv_bytes());
            t->send_bytes(std::vector<std::uint8_t>{0xAA});  // release the client
            t->close();
        });
        auto t = net::connect("127.0.0.1", listener.port(), /*timeout_ms=*/10'000);
        t->set_recv_timeout(10'000);
        t->set_pipelined_sends(pipelined);
        Rng rng(17);
        for (int i = 0; i < 6; ++i) {
            t->set_phase(i < 3 ? net::Phase::kOffline : net::Phase::kOnline);
            std::vector<std::uint8_t> msg(static_cast<std::size_t>(64 + 1000 * i));
            for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
            t->send_bytes(msg);
        }
        t->flush_sends();
        (void)t->recv_bytes();
        const auto stats = t->stats();
        const auto waits = t->wait_stats();
        t->close();
        server_thread.join();
        return std::make_tuple(std::move(received), stats, waits);
    };

    const auto [sync_frames, sync_stats, sync_waits] = run_one(false);
    const auto [piped_frames, piped_stats, piped_waits] = run_one(true);
    ASSERT_EQ(piped_frames.size(), sync_frames.size());
    for (std::size_t i = 0; i < sync_frames.size(); ++i)
        EXPECT_EQ(piped_frames[i], sync_frames[i]) << "frame " << i << " diverged";
    EXPECT_EQ(piped_stats, sync_stats)
        << "pipelined sends changed the per-phase byte/flight accounting";
    // Wait accounting exists in both modes and never goes negative.
    EXPECT_GE(sync_waits.total_seconds(), 0.0);
    EXPECT_GE(piped_waits.total_seconds(), 0.0);
}

TEST(PipelineTransport, KeysFrameAfterQueuedDataKeepsOrderAndStats) {
    // Three DATA frames, a 2 MiB KEYS frame, then two more DATA frames,
    // over a synchronous and a pipelined connection. The pipelined KEYS
    // frame is written on the protocol thread once the writer has drained
    // its queue. The messages are made before the first send and the
    // receiver starts reading 200 ms late, while the first three frames
    // (9 MiB) exceed loopback's 4 MiB send buffer, so DATA frames are
    // still queued when the KEYS frame is sent. Every frame must arrive
    // whole and in send order (a KEYS frame that overtakes or interleaves
    // with DATA fails the typed recv) and both ends' accounting must match.
    Rng rng(23);
    const auto random_bytes = [&](std::size_t size) {
        std::vector<std::uint8_t> msg(size);
        for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
        return msg;
    };
    std::vector<std::vector<std::uint8_t>> sent;
    for (int i = 0; i < 3; ++i)
        sent.push_back(random_bytes((std::size_t{3} << 20) + static_cast<std::size_t>(1000 * i)));
    sent.push_back(random_bytes(std::size_t{2} << 20));  // the KEYS frame
    for (int i = 0; i < 2; ++i) sent.push_back(random_bytes(static_cast<std::size_t>(64 + i)));

    const auto run_one = [&](bool pipelined) {
        net::TcpListener listener(/*port=*/0);
        std::vector<std::vector<std::uint8_t>> received;
        net::ChannelStats sender_stats, receiver_stats;
        std::exception_ptr server_error, client_error;
        std::thread server_thread([&] {
            try {
                auto t = listener.accept(/*timeout_ms=*/10'000);
                t->set_recv_timeout(10'000);
                std::this_thread::sleep_for(200ms);
                for (int i = 0; i < 3; ++i) received.push_back(t->recv_bytes());
                received.push_back(t->recv_keys_bytes());
                for (int i = 0; i < 2; ++i) received.push_back(t->recv_bytes());
                t->send_bytes(std::vector<std::uint8_t>{0xAA});  // release the client
                receiver_stats = t->stats();
                t->close();
            } catch (...) {
                server_error = std::current_exception();
            }
        });
        try {
            auto t = net::connect("127.0.0.1", listener.port(), /*timeout_ms=*/10'000);
            t->set_recv_timeout(10'000);
            t->set_pipelined_sends(pipelined);
            t->set_phase(net::Phase::kOffline);
            for (int i = 0; i < 3; ++i) t->send_bytes(sent[static_cast<std::size_t>(i)]);
            t->send_keys_bytes(sent[3]);
            t->set_phase(net::Phase::kOnline);
            for (std::size_t i = 4; i < sent.size(); ++i) t->send_bytes(sent[i]);
            t->flush_sends();
            (void)t->recv_bytes();
            sender_stats = t->stats();
            t->close();
        } catch (...) {
            client_error = std::current_exception();
        }
        server_thread.join();
        if (server_error) std::rethrow_exception(server_error);
        if (client_error) std::rethrow_exception(client_error);
        return std::make_tuple(std::move(received), sender_stats, receiver_stats);
    };

    const auto [sync_frames, sync_sender, sync_receiver] = run_one(false);
    const auto [piped_frames, piped_sender, piped_receiver] = run_one(true);
    ASSERT_EQ(sync_frames, sent);
    ASSERT_EQ(piped_frames.size(), sync_frames.size());
    for (std::size_t i = 0; i < sync_frames.size(); ++i)
        EXPECT_EQ(piped_frames[i], sync_frames[i]) << "frame " << i << " diverged";
    EXPECT_EQ(piped_sender, sync_sender) << "sender's per-phase accounting diverged";
    EXPECT_EQ(piped_receiver, sync_receiver) << "receiver's per-phase accounting diverged";
    EXPECT_EQ(sync_sender.phase_bytes(net::Phase::kPreprocess), std::uint64_t{2} << 20);
}

TEST(PipelineTransport, RecvWaitIsChargedToTheCurrentPhase) {
    net::DuplexChannel channel;
    net::InProcTransport a(channel, 0);
    net::InProcTransport b(channel, 1);
    b.set_phase(net::Phase::kOnline);
    std::thread sender([&] {
        std::this_thread::sleep_for(100ms);
        a.send_bytes(std::vector<std::uint8_t>{1, 2, 3});
    });
    (void)b.recv_bytes();
    sender.join();
    const auto waits = b.wait_stats();
    EXPECT_GE(waits.recv_seconds[static_cast<int>(net::Phase::kOnline)], 0.05)
        << "the 100 ms blocked recv must be visible in the online wait bucket";
    EXPECT_EQ(waits.recv_seconds[static_cast<int>(net::Phase::kOffline)], 0.0);
    EXPECT_EQ(waits.send_seconds[static_cast<int>(net::Phase::kOnline)], 0.0)
        << "in-proc sends never block";
    // The sender never waited on anything.
    EXPECT_EQ(a.wait_stats().total_seconds(), 0.0);
}

/// A pipelined session of `config` over loopback TCP against the
/// synchronous in-process run: identical logits and per-phase stats.
void expect_pipelined_tcp_matches_inproc(pi::SessionConfig config) {
    const nn::Sequential model = tiny_model();
    auto opts = tiny_options(/*full_pi=*/false);
    opts.num_threads = 3;
    const pi::CompiledModel compiled(model, opts);
    const Tensor input = tiny_input();

    config.pipeline = false;
    const pi::PiResult reference = pi::run_private_inference(compiled, config, input);

    config.pipeline = true;
    const pi::ServerSession server(compiled, config);
    const pi::ClientModel client_model(compiled.artifact(), compiled.num_threads());
    const pi::ClientSession client(client_model, config);
    net::TcpListener listener(/*port=*/0);
    std::exception_ptr server_error;
    std::thread server_thread([&] {
        try {
            auto t = listener.accept(/*timeout_ms=*/10'000);
            t->set_recv_timeout(30'000);
            server.run(*t);
            t->close();
        } catch (...) {
            server_error = std::current_exception();
        }
    });
    auto t = net::connect("127.0.0.1", listener.port(), /*timeout_ms=*/10'000);
    t->set_recv_timeout(30'000);
    const Tensor logits = client.run(*t, input);
    const pi::PiStats client_stats = pi::stats_from_transport(*t);
    t->close();
    server_thread.join();
    ASSERT_FALSE(server_error) << "server side threw";

    ASSERT_TRUE(logits.same_shape(reference.logits));
    EXPECT_TRUE(logits.allclose(reference.logits, 0.0F))
        << "pipelined TCP diverged from the synchronous in-process run";
    EXPECT_EQ(client_stats.offline_bytes, reference.stats.offline_bytes);
    EXPECT_EQ(client_stats.online_bytes, reference.stats.online_bytes);
    EXPECT_EQ(client_stats.preprocess_bytes, reference.stats.preprocess_bytes);
    EXPECT_EQ(client_stats.offline_flights, reference.stats.offline_flights);
    EXPECT_EQ(client_stats.online_flights, reference.stats.online_flights);
    EXPECT_EQ(client_stats.preprocess_flights, reference.stats.preprocess_flights);
}

TEST(PipelineParity, PipelinedTcpSessionMatchesSynchronousInProc) {
    expect_pipelined_tcp_matches_inproc(pi::SessionConfig{.seed = 41});
}

/// The FSS twin: the session's KEYS frame goes out after the pipelined
/// writer drains, and must land exactly where the in-process run put it.
TEST(PipelineParity, PipelinedTcpFssSessionMatchesSynchronousInProc) {
    pi::SessionConfig config{.seed = 41};
    config.nonlinear = mpc::NonlinearBackend::kFss;
    expect_pipelined_tcp_matches_inproc(config);
}

// ---------------------------------------------------- chaos containment ---

TEST(PipelineChaos, MidStreamDisconnectUnderPipeliningIsContained) {
    // A client that aborts while the server's pipelined HE response
    // chunks are in flight: the writer thread hits the dead socket
    // asynchronously, and the failure must still surface as an ordinary
    // classified client abort — never a hang, a crash, or a poisoned
    // pool. Shape follows fault_test.cpp's chaos harness.
    const nn::Sequential model = tiny_model();
    const pi::CompiledModel compiled(model, tiny_options(/*full_pi=*/false));
    pi::SessionConfig config{.seed = 53};
    const Tensor input = tiny_input();
    config.pipeline = false;
    const Tensor reference = pi::run_private_inference(compiled, config, input).logits;
    config.pipeline = true;  // explicit: the property under test

    struct ReportLog {
        std::mutex m;
        std::condition_variable cv;
        std::vector<pi::ServingPool::SessionReport> reports;
    };
    auto log = std::make_shared<ReportLog>();
    pi::ServingPool pool(compiled, config,
                         {.workers = 2, .queue_capacity = 2, .recv_timeout_ms = 30'000},
                         [log](const pi::ServingPool::SessionReport& r) {
                             {
                                 const std::lock_guard<std::mutex> lock(log->m);
                                 log->reports.push_back(r);
                             }
                             log->cv.notify_all();
                         });
    net::TcpListener listener(/*port=*/0);
    std::atomic<bool> stopped{false};
    std::thread accept_thread([&] {
        while (!stopped.load()) {
            try {
                auto transport = listener.try_accept(/*timeout_ms=*/50);
                if (transport) (void)pool.serve(std::move(transport));
            } catch (const std::exception&) {  // failed handshake; keep accepting
            }
        }
    });
    const auto wait_report = [&](std::size_t count) {
        std::unique_lock<std::mutex> lock(log->m);
        const bool arrived =
            log->cv.wait_for(lock, 60s, [&] { return log->reports.size() >= count; });
        require(arrived, "timed out waiting for a session report");
        return log->reports[count - 1];
    };

    pi::ArtifactCache cache;
    const auto run_client = [&](const net::FaultSchedule& schedule) {
        struct Outcome {
            bool ok = false;
            Tensor logits;
            std::size_t ops = 0;
        } out;
        auto tcp = net::connect("127.0.0.1", listener.port(), /*timeout_ms=*/30'000);
        tcp->set_recv_timeout(30'000);
        net::FaultyTransport faulty(*tcp, schedule);
        try {
            const pi::Bootstrap boot = pi::fetch_artifact(faulty, &cache);
            const pi::ClientSession session(*boot.model, config);
            out.logits = session.run(faulty, input);
            out.ok = true;
        } catch (const std::exception&) {  // chaos outcomes are data
        }
        out.ops = faulty.ops_seen();
        tcp->close();
        return out;
    };

    // Cold pass ships the artifact and warms the cache; the warm
    // counting pass learns the op address space every later run shares.
    std::size_t session_count = 0;
    {
        const auto cold = run_client({});
        ASSERT_TRUE(cold.ok);
        EXPECT_TRUE(wait_report(++session_count).ok);
    }
    std::size_t total_ops = 0;
    {
        const auto counting = run_client({});
        ASSERT_TRUE(counting.ok);
        EXPECT_TRUE(counting.logits.allclose(reference, 0.0F))
            << "pipelined serving diverged from the synchronous reference";
        EXPECT_TRUE(wait_report(++session_count).ok);
        total_ops = counting.ops;
    }
    ASSERT_GE(total_ops, 6U);

    // Disconnect mid-stream: while the conv layer's streamed response
    // chunks are arriving (past bootstrap + setup, before the reveal).
    for (const std::size_t at : {total_ops / 3, total_ops / 2}) {
        net::FaultSchedule schedule(
            {{.kind = net::FaultKind::kDisconnect, .op = net::FaultOp::kAny, .at_op = at}});
        const auto outcome = run_client(schedule);
        EXPECT_FALSE(outcome.ok) << "disconnect at op " << at;
        const auto report = wait_report(++session_count);
        if (!report.ok)
            EXPECT_EQ(report.failure, pi::FailureClass::kClientAbort)
                << "disconnect at op " << at << " classified as "
                << pi::failure_class_name(report.failure) << ": " << report.error;
    }

    // Containment: the pool still serves a clean client bit-identically.
    {
        const auto clean = run_client({});
        ASSERT_TRUE(clean.ok);
        EXPECT_TRUE(clean.logits.allclose(reference, 0.0F))
            << "post-chaos pipelined client diverged";
        EXPECT_TRUE(wait_report(++session_count).ok);
    }

    stopped.store(true);
    accept_thread.join();
    pool.drain();
    const auto stats = pool.stats();
    EXPECT_EQ(stats.accepted, session_count);
    EXPECT_EQ(stats.active, 0);
    EXPECT_EQ(stats.served + stats.failed, stats.accepted);
    std::uint64_t classified = 0;
    for (const std::uint64_t n : stats.failed_by_class) classified += n;
    EXPECT_EQ(classified, stats.failed) << "every failure must land in exactly one class";
}

}  // namespace
}  // namespace c2pi
