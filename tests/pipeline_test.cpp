// Pipelined-schedule suite (compute/communication overlap): every
// session sends through the transport's writer-thread queue and streams
// its HE responses chunk by chunk, and the claim is that this schedule
// changes WHEN work happens, never what goes on the wire. Pinned here at
// three levels:
//
//  * session: the full {gc,ot,fss} x {Cheetah, Delphi, full-PI} matrix
//    over loopback TCP against the in-process run — bit-identical
//    logits, identical per-phase ChannelStats at both TCP ends, and
//    byte-identical per-message wire payloads (every payload compared,
//    not totals); a session or context set up with `pipeline = false`
//    throws before it sends anything;
//  * transport (loopback TCP): the writer thread delivers exactly the
//    frames sent, in order, and both ends account them identically, a
//    KEYS frame included; the KEYS write's blocked time is preprocess
//    send wait, and blocked-recv time lands in the wait bucket of the
//    phase that was current at the call;
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
#include "loopback.hpp"
#include "recording_transport.hpp"

namespace c2pi {
namespace {

using namespace std::chrono_literals;

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

/// One recorded session over the in-process channel.
SessionTranscript run_inproc_session(const pi::CompiledModel& compiled,
                                     const pi::SessionConfig& config, const Tensor& input) {
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

/// The same session over loopback TCP. Each end keeps its own
/// ChannelStats; they must agree with each other before either is
/// compared with anything else.
SessionTranscript run_tcp_session(const pi::CompiledModel& compiled,
                                  const pi::SessionConfig& config, const Tensor& input,
                                  const std::string& what) {
    const pi::ServerSession server(compiled, config);
    const pi::ClientModel client_model(compiled.artifact(), compiled.num_threads());
    const pi::ClientSession client(client_model, config);
    SessionTranscript tr;
    const LoopbackRun run = run_loopback(
        [&](net::TcpTransport& t) {
            RecordingTransport rec(t, tr.server_sent);
            server.run(rec);
        },
        [&](net::TcpTransport& t) {
            RecordingTransport rec(t, tr.client_sent);
            tr.logits = client.run(rec, input);
        });
    EXPECT_EQ(run.server_stats, run.client_stats)
        << what << ": the two TCP ends' accounting diverged";
    tr.stats = run.client_stats;
    return tr;
}

void expect_same_transcript(const SessionTranscript& reference, const SessionTranscript& run,
                            const std::string& what) {
    ASSERT_TRUE(run.logits.same_shape(reference.logits)) << what;
    EXPECT_TRUE(run.logits.allclose(reference.logits, 0.0F))
        << what << ": the transport changed the logits";
    EXPECT_EQ(run.stats, reference.stats) << what << ": per-phase byte/flight stats diverged";
    ASSERT_EQ(run.server_sent.size(), reference.server_sent.size())
        << what << ": server message count";
    ASSERT_EQ(run.client_sent.size(), reference.client_sent.size())
        << what << ": client message count";
    for (std::size_t i = 0; i < reference.server_sent.size(); ++i)
        EXPECT_EQ(run.server_sent[i], reference.server_sent[i])
            << what << ": server message " << i << " diverged";
    for (std::size_t i = 0; i < reference.client_sent.size(); ++i)
        EXPECT_EQ(run.client_sent[i], reference.client_sent[i])
            << what << ": client message " << i << " diverged";
}

// ------------------------------------------------- session-level parity ---

TEST(PipelineParity, TcpMatchesInProcAcrossBackendMatrix) {
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
            const auto inproc = run_inproc_session(compiled, config, input);
            const auto tcp = run_tcp_session(compiled, config, input, what);
            ASSERT_GT(inproc.server_sent.size(), 0U) << what;
            expect_same_transcript(inproc, tcp, what);
        }
    }
}

TEST(PipelineParity, SynchronousScheduleIsRefusedBeforeAnyFrame) {
    const nn::Sequential model = tiny_model();
    const pi::CompiledModel compiled(model, tiny_options(/*full_pi=*/false));
    const pi::ClientModel client_model(compiled.artifact(), compiled.num_threads());
    pi::SessionConfig config{.seed = 5};
    config.pipeline = false;
    // Both ends are aborted up front, so a session that did start would
    // fail on its first recv instead of waiting for a peer; the channel's
    // empty accounting is what shows that nothing was sent.
    net::DuplexChannel channel;
    net::InProcTransport server_end(channel, mpc::kServer);
    net::InProcTransport client_end(channel, mpc::kClient);
    server_end.abort_connection();
    EXPECT_THROW(pi::ServerSession(compiled, config).run(server_end), Error);
    EXPECT_THROW((void)pi::ClientSession(client_model, config).run(client_end, tiny_input()),
                 Error);
    mpc::PartyContext ctx(server_end, compiled.fmt(), compiled.bfv(), crypto::Block128{5, 6});
    EXPECT_THROW(ctx.set_pipeline(false), Error);
    EXPECT_NO_THROW(ctx.set_pipeline(true));
    EXPECT_EQ(channel.stats(), net::ChannelStats{}) << "a refused session sent a frame";
}

// ----------------------------------------------- transport-level parity ---

/// `count` messages of pseudo-random bytes, message i sized `size(i)`.
template <typename SizeFn>
std::vector<std::vector<std::uint8_t>> random_messages(std::uint64_t seed, int count,
                                                       SizeFn&& size) {
    Rng rng(seed);
    std::vector<std::vector<std::uint8_t>> messages;
    for (int i = 0; i < count; ++i) {
        std::vector<std::uint8_t> msg(size(i));
        for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
        messages.push_back(std::move(msg));
    }
    return messages;
}

TEST(PipelineTransport, TcpWriterThreadPreservesFrameSequenceAndStats) {
    // Six DATA frames with a phase flip mid-stream while frames are still
    // queued: the receiver must observe exactly the sent frames, in
    // order, and its accounting (from the frames' phase tags) must equal
    // the sender's enqueue-time accounting byte for byte.
    const auto sent = random_messages(
        17, 6, [](int i) { return static_cast<std::size_t>(64 + 1000 * i); });
    std::vector<std::vector<std::uint8_t>> received;
    net::WaitStats sender_waits;
    const LoopbackRun run = run_loopback(
        [&](net::TcpTransport& t) {
            for (std::size_t i = 0; i < sent.size(); ++i) received.push_back(t.recv_bytes());
            t.send_bytes(std::vector<std::uint8_t>{0xAA});  // release the client
        },
        [&](net::TcpTransport& t) {
            for (std::size_t i = 0; i < sent.size(); ++i) {
                t.set_phase(i < 3 ? net::Phase::kOffline : net::Phase::kOnline);
                t.send_bytes(sent[i]);
            }
            t.flush_sends();
            (void)t.recv_bytes();
            sender_waits = t.wait_stats();
        });
    ASSERT_EQ(received.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i)
        EXPECT_EQ(received[i], sent[i]) << "frame " << i << " diverged";
    EXPECT_EQ(run.client_stats, run.server_stats)
        << "the two ends' per-phase accounting diverged";
    EXPECT_EQ(run.client_stats.phase_bytes(net::Phase::kOffline), 64U + 1064U + 2064U);
    EXPECT_GE(sender_waits.total_seconds(), 0.0);
}

TEST(PipelineTransport, KeysFrameAfterQueuedDataKeepsOrderAndStats) {
    // Three DATA frames, a 2 MiB KEYS frame, then two more DATA frames.
    // The KEYS frame is written on the protocol thread once the writer
    // has drained its queue. The messages are made before the first send
    // and the receiver starts reading 200 ms late, while the first three
    // frames (9 MiB) exceed loopback's 4 MiB send buffer, so DATA frames
    // are still queued when the KEYS frame is sent. Every frame must
    // arrive whole and in send order (a KEYS frame that overtakes or
    // interleaves with DATA fails the typed recv) and both ends'
    // accounting must match.
    const auto sent = random_messages(23, 6, [](int i) {
        if (i < 3) return (std::size_t{3} << 20) + static_cast<std::size_t>(1000 * i);
        if (i == 3) return std::size_t{2} << 20;  // the KEYS frame
        return static_cast<std::size_t>(60 + i);
    });
    std::vector<std::vector<std::uint8_t>> received;
    const LoopbackRun run = run_loopback(
        [&](net::TcpTransport& t) {
            std::this_thread::sleep_for(200ms);
            for (int i = 0; i < 3; ++i) received.push_back(t.recv_bytes());
            received.push_back(t.recv_keys_bytes());
            for (int i = 0; i < 2; ++i) received.push_back(t.recv_bytes());
            t.send_bytes(std::vector<std::uint8_t>{0xAA});  // release the client
        },
        [&](net::TcpTransport& t) {
            t.set_phase(net::Phase::kOffline);
            for (int i = 0; i < 3; ++i) t.send_bytes(sent[static_cast<std::size_t>(i)]);
            t.send_keys_bytes(sent[3]);
            t.set_phase(net::Phase::kOnline);
            for (std::size_t i = 4; i < sent.size(); ++i) t.send_bytes(sent[i]);
            t.flush_sends();
            (void)t.recv_bytes();
        });
    ASSERT_EQ(received.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i)
        EXPECT_EQ(received[i], sent[i]) << "frame " << i << " diverged";
    EXPECT_EQ(run.client_stats, run.server_stats)
        << "the two ends' per-phase accounting diverged";
    EXPECT_EQ(run.client_stats.phase_bytes(net::Phase::kPreprocess), std::uint64_t{2} << 20);
}

TEST(PipelineTransport, KeysWriteIsChargedAsPreprocessSendWait) {
    // A 16 MiB KEYS frame, far more than loopback's socket buffers hold,
    // to a peer that starts reading 300 ms late: the write blocks on the
    // protocol thread until the peer drains it, and that time is the
    // sender's kPreprocess send wait.
    const std::vector<std::uint8_t> keys(std::size_t{16} << 20, 0x5A);
    net::WaitStats sender_waits;
    (void)run_loopback(
        [&](net::TcpTransport& t) {
            std::this_thread::sleep_for(300ms);
            EXPECT_EQ(t.recv_keys_bytes().size(), keys.size());
            t.send_bytes(std::vector<std::uint8_t>{0xAA});  // release the client
        },
        [&](net::TcpTransport& t) {
            t.send_keys_bytes(keys);
            sender_waits = t.wait_stats();
            (void)t.recv_bytes();
        });
    EXPECT_GE(sender_waits.send_seconds[static_cast<int>(net::Phase::kPreprocess)], 0.15)
        << "the blocked KEYS write must show as preprocess send wait";
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

/// A session of `config` over loopback TCP against the in-process run:
/// identical logits and per-phase stats.
void expect_pipelined_tcp_matches_inproc(const pi::SessionConfig& config) {
    const nn::Sequential model = tiny_model();
    auto opts = tiny_options(/*full_pi=*/false);
    opts.num_threads = 3;
    const pi::CompiledModel compiled(model, opts);
    const Tensor input = tiny_input();

    const pi::PiResult reference = pi::run_private_inference(compiled, config, input);

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

/// The FSS twin: the session's KEYS frame goes out after the writer
/// drains, and must land exactly where the in-process run put it.
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
    const pi::SessionConfig config{.seed = 53};
    const Tensor input = tiny_input();
    const Tensor reference = pi::run_private_inference(compiled, config, input).logits;

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
            << "pipelined serving diverged from the in-process reference";
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
