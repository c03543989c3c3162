// Tests for the socket-backed transport (net/tcp.hpp): handshake and
// framed message semantics over loopback, graceful vs abrupt shutdown,
// and — the property the Table II cost model depends on — *parity* with
// the in-process DuplexChannel: a private inference over real TCP must
// produce bit-identical logits and identical per-phase byte/message/
// flight accounting on both endpoints.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "loopback.hpp"
#include "net/tcp.hpp"

// The parity tests deliberately run the SAME model/options the deployed
// pi_server/pi_client binaries use, so passing here certifies the demo
// pairing too (and avoids a fourth copy of the test topology).
#include "../examples/remote_common.hpp"

namespace c2pi::net {
namespace {

void expect_stats_equal(const ChannelStats& a, const ChannelStats& b, const char* what) {
    for (int p = 0; p < kNumPhases; ++p) {
        for (int sender = 0; sender < 2; ++sender) {
            EXPECT_EQ(a.bytes[p][sender], b.bytes[p][sender])
                << what << ": bytes[" << p << "][" << sender << "]";
            EXPECT_EQ(a.messages[p][sender], b.messages[p][sender])
                << what << ": messages[" << p << "][" << sender << "]";
        }
        EXPECT_EQ(a.flights[p], b.flights[p]) << what << ": flights[" << p << "]";
    }
}

TEST(TcpTransport, HandshakeAndTypedRoundTrip) {
    std::vector<std::uint64_t> got;
    const auto run = run_loopback(
        [](Transport& t) {
            EXPECT_EQ(t.party_id(), 0);
            t.set_phase(Phase::kOffline);
            t.send_bytes(std::vector<std::uint8_t>(100));
            t.set_phase(Phase::kOnline);
            t.send_u64s(std::vector<std::uint64_t>{1, 0xFFFFFFFFFFFFFFFFULL, 42});
            EXPECT_EQ(t.recv_u64(), 7U);
        },
        [&](Transport& t) {
            EXPECT_EQ(t.party_id(), 1);
            EXPECT_EQ(t.recv_bytes().size(), 100U);
            got = t.recv_u64s();
            t.send_u64(7);
        });
    EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 0xFFFFFFFFFFFFFFFFULL, 42}));

    // Both endpoints reconstruct the same accounting: the phase tag in
    // each frame attributes received traffic to the sender's phase.
    expect_stats_equal(run.server_stats, run.client_stats, "server vs client");
    EXPECT_EQ(run.client_stats.bytes[static_cast<int>(Phase::kOffline)][0], 100U);
    EXPECT_EQ(run.client_stats.bytes[static_cast<int>(Phase::kOnline)][0], 24U);
    EXPECT_EQ(run.client_stats.bytes[static_cast<int>(Phase::kOnline)][1], 8U);
    EXPECT_EQ(run.client_stats.total_flights(), 2U);
}

TEST(TcpTransport, EmptyAndLargeMessagesSurviveFraming) {
    // Framing must preserve message boundaries: a 0-byte message arrives
    // as a 0-byte message, and a multi-megabyte one arrives whole even
    // though TCP delivers it in many segments.
    const std::size_t big = 3 * 1024 * 1024 + 13;
    (void)run_loopback(
        [&](Transport& t) {
            t.send_bytes({});
            std::vector<std::uint8_t> msg(big);
            for (std::size_t i = 0; i < big; ++i) msg[i] = static_cast<std::uint8_t>(i * 31);
            t.send_bytes(msg);
        },
        [&](Transport& t) {
            EXPECT_TRUE(t.recv_bytes().empty());
            const auto msg = t.recv_bytes();
            ASSERT_EQ(msg.size(), big);
            bool ok = true;
            for (std::size_t i = 0; i < big; ++i)
                ok = ok && msg[i] == static_cast<std::uint8_t>(i * 31);
            EXPECT_TRUE(ok) << "payload corrupted in transit";
        });
}

TEST(TcpTransport, CleanShutdownThrowsTypedErrorOnPendingRecv) {
    // Server ends the session immediately; the client's recv must fail
    // with the clean end-of-session error, not an EOF/reset surprise.
    try {
        (void)run_loopback([](Transport&) {},  // close() right after handshake
                           [](Transport& t) { (void)t.recv_bytes(); });
        FAIL() << "client recv after peer shutdown must throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("ended the session"), std::string::npos)
            << e.what();
    }
}

TEST(TcpTransport, BusyFrameIsTypedAtSessionStartOnly) {
    // Legal (PROTOCOL.md §4): BUSY in place of the ARTIFACT frame is the
    // typed load-shedding signal.
    (void)run_loopback([](TcpTransport& t) { t.refuse_busy(); },
                       [](TcpTransport& t) {
                           EXPECT_THROW((void)t.recv_artifact_bytes(), ServerBusy);
                       });

    // Illegal position: BUSY mid-protocol is a violation, not load
    // shedding — it must NOT surface as the typed ServerBusy.
    (void)run_loopback(
        [](TcpTransport& t) {
            t.send_bytes(std::vector<std::uint8_t>{1, 2, 3});
            t.refuse_busy();
        },
        [](TcpTransport& t) {
            (void)t.recv_bytes();
            try {
                (void)t.recv_bytes();
                FAIL() << "mid-protocol BUSY must raise";
            } catch (const ServerBusy&) {
                FAIL() << "mid-protocol BUSY must not read as load shedding";
            } catch (const Error&) {  // expected: protocol violation
            }
        });

    // Illegal sender: only party 0 sheds load; a client claiming "busy"
    // is a misbehaving peer.
    (void)run_loopback(
        [](TcpTransport& t) {
            try {
                (void)t.recv_bytes();
                FAIL() << "BUSY from party 1 must raise";
            } catch (const ServerBusy&) {
                FAIL() << "BUSY from party 1 must not read as load shedding";
            } catch (const Error&) {  // expected: protocol violation
            }
        },
        [](TcpTransport& t) { t.refuse_busy(); });
}

/// PROTOCOL.md §4: an FSS session carries exactly one KEYS frame, right
/// after the backend announcement. A KEYS frame where the protocol
/// expects DATA is a violation on either transport, never DATA bytes.
TEST(TcpTransport, KeysFrameWhereDataExpectedIsRejected) {
    (void)run_loopback(
        [](Transport& t) { t.send_keys_bytes(std::vector<std::uint8_t>{1, 2, 3}); },
        [](Transport& t) { EXPECT_THROW((void)t.recv_bytes(), Error); });
}

TEST(InProcTransport, KeysMessageWhereDataExpectedIsRejected) {
    DuplexChannel channel;
    InProcTransport server(channel, 0);
    InProcTransport client(channel, 1);
    server.send_keys_bytes(std::vector<std::uint8_t>{1, 2, 3});
    EXPECT_THROW((void)client.recv_bytes(), Error);
}

/// Connect to `port` with a raw socket, send `hello` as the handshake,
/// then drain until the listener closes the connection.
void raw_hello_peer(std::uint16_t port, const std::uint8_t (&hello)[kHandshakeSize]) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    (void)::send(fd, hello, sizeof(hello), MSG_NOSIGNAL);
    char sink[64];
    while (::recv(fd, sink, sizeof(sink), 0) > 0) {}
    ::close(fd);
}

TEST(TcpTransport, RejectsNonC2piPeer) {
    // A peer speaking the wrong protocol (bad magic) is rejected during
    // the handshake, before any protocol data is exchanged.
    TcpListener listener(/*port=*/0);
    std::thread garbage_client([port = listener.port()] {
        const std::uint8_t junk[kHandshakeSize] = {'H', 'T', 'T', 'P', '/', '1', '.', '1'};
        raw_hello_peer(port, junk);
    });
    EXPECT_THROW((void)listener.accept(/*timeout_ms=*/10'000), Error);
    garbage_client.join();
}

TEST(TcpTransport, RejectsPeerAnnouncingAnotherVersion) {
    // Well-formed hellos from older peers. A version-1 peer's 1-of-16 OT
    // pads differ, so the session must fail at the handshake instead of
    // computing wrong comparisons with frames of the right size. A
    // version-2 peer ships two-key FSS records; the handshake rejects it
    // before its KEYS frame could fail the size check.
    for (const std::uint8_t version : {1, 2}) {
        TcpListener listener(/*port=*/0);
        std::thread old_client([port = listener.port(), version] {
            const std::uint8_t hello[kHandshakeSize] = {'C', '2', 'P', 'I', version, 1, 0, 0};
            raw_hello_peer(port, hello);
        });
        EXPECT_THROW((void)listener.accept(/*timeout_ms=*/10'000), Error) << "version " << +version;
        old_client.join();
    }
}

TEST(TcpTransport, ConnectTimesOutWhenNobodyListens) {
    // Grab an ephemeral port, then close the listener so nothing accepts.
    std::uint16_t dead_port;
    {
        TcpListener listener(/*port=*/0);
        dead_port = listener.port();
    }
    EXPECT_THROW((void)connect("127.0.0.1", dead_port, /*timeout_ms=*/300), Error);
}

// ------------------------------------------------------ inference parity ---

/// One inference over loopback TCP vs the same inference over the
/// in-process DuplexChannel: logits must be bit-identical and the
/// traffic accounting must agree byte-for-byte, per phase, on the
/// channel and on BOTH socket endpoints.
void check_tcp_parity(bool full_pi, pi::SessionConfig config) {
    const nn::Sequential model = demo::make_demo_model();
    const pi::CompiledModel compiled(model, demo::demo_compile_options(full_pi));

    Rng rng(100);
    const Tensor input = Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F);
    const pi::PiResult reference = pi::run_private_inference(compiled, config, input);

    const pi::ServerSession server(compiled, config);
    const pi::ClientModel client_model(compiled.artifact(), compiled.num_threads());
    const pi::ClientSession client(client_model, config);
    Tensor logits;
    const auto run = run_loopback([&](Transport& t) { server.run(t); },
                                  [&](Transport& t) { logits = client.run(t, input); });

    ASSERT_TRUE(logits.same_shape(reference.logits));
    EXPECT_TRUE(logits.allclose(reference.logits, 0.0F))
        << "TCP transport changed the inference result";

    expect_stats_equal(run.server_stats, run.client_stats, "server vs client endpoint");
    const pi::PiStats tcp = pi::stats_from_channel(run.client_stats);
    EXPECT_EQ(tcp.offline_bytes, reference.stats.offline_bytes);
    EXPECT_EQ(tcp.online_bytes, reference.stats.online_bytes);
    EXPECT_EQ(tcp.preprocess_bytes, reference.stats.preprocess_bytes);
    EXPECT_EQ(tcp.offline_flights, reference.stats.offline_flights);
    EXPECT_EQ(tcp.online_flights, reference.stats.online_flights);
    EXPECT_EQ(tcp.preprocess_flights, reference.stats.preprocess_flights);
}

TEST(TcpInferenceParity, CryptoClearBoundaryWithNoise) {
    check_tcp_parity(/*full_pi=*/false, pi::SessionConfig{.noise_lambda = 0.05F, .seed = 42});
}

TEST(TcpInferenceParity, FullPiCheetah) {
    check_tcp_parity(/*full_pi=*/true, pi::SessionConfig{.seed = 9});
}

TEST(TcpInferenceParity, FullPiFssPreprocessKeysFrame) {
    // kFss ships its DCF key batch in the preprocessing KEYS frame; the
    // frame must survive the wire with the same accounting the in-process
    // channel reports (same bytes, same phase bucket) and identical logits.
    pi::SessionConfig config{.seed = 13};
    config.nonlinear = mpc::NonlinearBackend::kFss;
    check_tcp_parity(/*full_pi=*/true, config);
}

TEST(TcpInferenceParity, DelphiOfflinePhaseAttribution) {
    // Delphi charges HE linear work to the offline phase; the frame's
    // phase tag must carry that attribution across the wire.
    check_tcp_parity(/*full_pi=*/false,
                     pi::SessionConfig{.backend = pi::PiBackend::kDelphi, .seed = 11});
}

}  // namespace
}  // namespace c2pi::net
