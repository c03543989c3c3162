// Tests for the wire-shippable ModelArtifact and the weightless-client
// path: the versioned binary codec must round-trip byte-stably and
// reject truncated/corrupt/foreign payloads with typed c2pi::Errors; a
// client compiled from a SHIPPED artifact (serialized, sent over the
// transport, deserialized) must produce bit-identical logits and
// identical per-phase traffic stats to the locally-compiled client —
// over both the in-process channel and real loopback TCP, where the
// artifact travels in its own unmetered frame (docs/PROTOCOL.md §3).

#include <gtest/gtest.h>

#include <thread>

#include "net/runtime.hpp"
#include "net/tcp.hpp"
#include "pi/session.hpp"

// Reuse the deployed pi_server/pi_client topology so passing here
// certifies the demo pairing too.
#include "../examples/remote_common.hpp"

namespace c2pi::pi {
namespace {

ModelArtifact demo_artifact(bool full_pi = false) {
    const nn::Sequential model = demo::make_demo_model();
    const auto opts = demo::demo_compile_options(full_pi);
    return ModelArtifact::build(model, {.input_chw = opts.input_chw,
                                        .boundary = opts.boundary,
                                        .fmt = opts.fmt,
                                        .he_ring_degree = opts.he_ring_degree});
}

/// A DAG artifact: resnet9 at smoke scale, cut past the first residual
/// block so the crypto-prefix plan carries a kResidualAdd entry and the
/// codec must emit version 2.
ModelArtifact resnet_artifact() {
    const nn::Graph model = demo::make_remote_model("resnet9");
    const auto opts = demo::remote_compile_options(model, "resnet9", /*full_pi=*/false);
    return ModelArtifact::build(model, {.input_chw = opts.input_chw,
                                        .boundary = opts.boundary,
                                        .fmt = opts.fmt,
                                        .he_ring_degree = opts.he_ring_degree});
}

// ------------------------------------------------------------------ codec ---

TEST(ArtifactCodec, RoundTripIsByteStable) {
    const ModelArtifact artifact = demo_artifact();
    const auto bytes = artifact.serialize();
    ASSERT_FALSE(bytes.empty());

    const ModelArtifact back = ModelArtifact::deserialize(bytes);
    EXPECT_EQ(back, artifact);
    // Deterministic codec: re-serializing the decoded artifact must
    // reproduce the exact bytes (the server ships the same frame to
    // every client; a drifting encoding would break caching and audits).
    EXPECT_EQ(back.serialize(), bytes);
}

TEST(ArtifactCodec, FullPiArtifactRoundTrips) {
    const ModelArtifact artifact = demo_artifact(/*full_pi=*/true);
    EXPECT_TRUE(artifact.full_pi);
    EXPECT_EQ(artifact.hidden_linear_ops(), 0);
    const ModelArtifact back = ModelArtifact::deserialize(artifact.serialize());
    EXPECT_EQ(back, artifact);
}

TEST(ArtifactCodec, RejectsEveryTruncation) {
    const auto bytes = demo_artifact().serialize();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW((void)ModelArtifact::deserialize(
                         std::span<const std::uint8_t>(bytes.data(), len)),
                     Error)
            << "prefix of " << len << " bytes must not decode";
    }
}

TEST(ArtifactCodec, RejectsBadMagic) {
    auto bytes = demo_artifact().serialize();
    bytes[0] = 'X';
    try {
        (void)ModelArtifact::deserialize(bytes);
        FAIL() << "bad magic must throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
    }
}

TEST(ArtifactCodec, RejectsVersionMismatch) {
    // The version u16 lives right after the 4-byte magic; only 2 is
    // supported, so the retired version 1 fails like a future version 3.
    for (const std::uint8_t version : {1, 3}) {
        auto bytes = demo_artifact().serialize();
        bytes[4] = version;
        try {
            (void)ModelArtifact::deserialize(bytes);
            FAIL() << "codec version " << int{version} << " must throw";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
        }
    }
}

// -------------------------------------------------------- v2 (DAG) codec ---

TEST(ArtifactCodecV2, DagRoundTripIsByteStable) {
    const ModelArtifact artifact = resnet_artifact();
    bool has_add = false;
    for (const auto& p : artifact.plan) has_add |= p.op == PlanOp::kResidualAdd;
    ASSERT_TRUE(has_add) << "resnet9 boundary must put a residual add in the crypto prefix";

    const auto bytes = artifact.serialize();
    EXPECT_EQ(bytes[4], 2);
    EXPECT_EQ(bytes[5], 0);
    const ModelArtifact back = ModelArtifact::deserialize(bytes);
    EXPECT_EQ(back, artifact);
    EXPECT_EQ(back.serialize(), bytes);
}

TEST(ArtifactCodecV2, RejectsEveryTruncation) {
    const auto bytes = resnet_artifact().serialize();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW((void)ModelArtifact::deserialize(
                         std::span<const std::uint8_t>(bytes.data(), len)),
                     Error)
            << "prefix of " << len << " bytes must not decode";
    }
}

TEST(ArtifactCodecV2, RejectsDanglingPlanEdge) {
    ModelArtifact artifact = resnet_artifact();
    // Forward reference: entry 1 consuming entry 5 has no defined value yet.
    artifact.plan[1].input0 = 5;
    try {
        artifact.validate();
        FAIL() << "dangling edge must throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("dangling plan edge"), std::string::npos)
            << e.what();
    }
    // And the same hostile payload is rejected at the wire boundary.
    EXPECT_THROW((void)ModelArtifact::deserialize(artifact.serialize()), Error);
}

TEST(ArtifactCodecV2, RejectsSecondEdgeOnNonAddEntry) {
    ModelArtifact artifact = resnet_artifact();
    for (std::size_t i = 0; i < artifact.plan.size(); ++i) {
        if (artifact.plan[i].op == PlanOp::kResidualAdd) continue;
        artifact.plan[i].input1 = 0;
        EXPECT_THROW(artifact.validate(), Error);
        EXPECT_THROW((void)ModelArtifact::deserialize(artifact.serialize()), Error);
        artifact.plan[i].input1 = -1;
        break;
    }
}

TEST(ArtifactCodec, RejectsTrailingBytes) {
    auto bytes = demo_artifact().serialize();
    bytes.push_back(0);
    EXPECT_THROW((void)ModelArtifact::deserialize(bytes), Error);
}

TEST(ArtifactCodec, RejectsCorruptPlan) {
    const ModelArtifact artifact = demo_artifact();
    {
        // Unknown plan op byte: the first entry's op sits right after the
        // fixed-size header fields.
        ModelArtifact bad = artifact;
        bad.plan[0].op = static_cast<PlanOp>(250);
        EXPECT_THROW((void)ModelArtifact::deserialize(bad.serialize()), Error);
    }
    {
        // Structurally broken shape chain survives decoding but must die
        // in validate().
        ModelArtifact bad = artifact;
        bad.plan[1].in_shape = {1, 2, 3};
        EXPECT_THROW((void)ModelArtifact::deserialize(bad.serialize()), Error);
    }
    {
        // Boundary/plan disagreement: claim one more crypto linear op
        // than the plan contains.
        ModelArtifact bad = artifact;
        bad.cut.linear_index += 1;
        bad.num_linear_ops += 1;
        EXPECT_THROW((void)ModelArtifact::deserialize(bad.serialize()), Error);
    }
    {
        // Flipped full_pi flag: the final reveal direction would desync
        // (client waits on logits the server never sends). The flag is
        // derivable from the boundary, so a disagreement is corruption.
        ModelArtifact bad = artifact;
        bad.full_pi = !bad.full_pi;
        EXPECT_THROW((void)ModelArtifact::deserialize(bad.serialize()), Error);
    }
    {
        // Hostile resource amplification: a huge (power-of-two) ring
        // degree must die as a typed error, not as the client's BFV
        // table allocation.
        ModelArtifact bad = artifact;
        bad.he_ring_degree = std::size_t{1} << 40;
        EXPECT_THROW((void)ModelArtifact::deserialize(bad.serialize()), Error);
    }
    {
        // Inflated pooling output shape would walk the client's pooling
        // kernels off the activation buffer.
        ModelArtifact bad = artifact;
        for (auto& p : bad.plan) {
            if (p.op != PlanOp::kMaxPool) continue;
            p.out_shape[1] += 1;
            break;
        }
        EXPECT_THROW((void)ModelArtifact::deserialize(bad.serialize()), Error);
    }
}

// ------------------------------------------------- weightless-client parity ---

void expect_pi_stats_equal(const PiStats& a, const PiStats& b, const char* what) {
    EXPECT_EQ(a.offline_bytes, b.offline_bytes) << what;
    EXPECT_EQ(a.online_bytes, b.online_bytes) << what;
    EXPECT_EQ(a.offline_flights, b.offline_flights) << what;
    EXPECT_EQ(a.online_flights, b.online_flights) << what;
}

/// Shipped-artifact parity over the in-process transport: the server
/// sends its serialized artifact through the channel's unmetered
/// bootstrap path; the client compiles a ClientModel from the received
/// bytes and runs. Logits must be bit-identical to the locally-compiled
/// reference and the channel stats must not move by a single byte.
void check_shipped_artifact_inproc(bool full_pi, const SessionConfig& config) {
    const nn::Sequential model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(full_pi));

    Rng rng(100);
    const Tensor input = Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F);
    const PiResult reference = run_private_inference(compiled, config, input);

    const ServerSession server(compiled, config);
    const std::vector<std::uint8_t> artifact_bytes = compiled.artifact().serialize();
    net::DuplexChannel channel;
    Tensor logits;
    const auto run = net::run_two_party(
        channel,
        [&](net::Transport& t) {
            t.send_artifact_bytes(artifact_bytes);
            server.run(t);
        },
        [&](net::Transport& t) {
            const ModelArtifact artifact = ModelArtifact::deserialize(t.recv_artifact_bytes());
            const ClientModel client_model(artifact);
            const ClientSession client(client_model, config);
            logits = client.run(t, input);
        });

    ASSERT_TRUE(logits.same_shape(reference.logits));
    EXPECT_TRUE(logits.allclose(reference.logits, 0.0F))
        << "shipped artifact changed the inference result";
    expect_pi_stats_equal(stats_from_run(run), reference.stats,
                          "shipped vs local artifact (in-process)");
}

TEST(WeightlessClient, InProcCryptoClearWithNoise) {
    check_shipped_artifact_inproc(/*full_pi=*/false,
                                  SessionConfig{.noise_lambda = 0.05F, .seed = 42});
}

TEST(WeightlessClient, InProcFullPi) {
    check_shipped_artifact_inproc(/*full_pi=*/true, SessionConfig{.seed = 9});
}

TEST(WeightlessClient, InProcDelphiBackend) {
    check_shipped_artifact_inproc(
        /*full_pi=*/false, SessionConfig{.backend = PiBackend::kDelphi, .seed = 11});
}

TEST(WeightlessClient, TcpShippedArtifactMatchesLocalCompile) {
    // The deployed shape, exactly as pi_server/pi_client wire it: the
    // artifact travels in its own kArtifact frame and is excluded from
    // the per-phase accounting on BOTH endpoints.
    const nn::Sequential model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/false));
    const SessionConfig config{.noise_lambda = 0.05F, .seed = 21};

    Rng rng(300);
    const Tensor input = Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F);
    const PiResult reference = run_private_inference(compiled, config, input);

    const ServerSession server(compiled, config);
    net::TcpListener listener(/*port=*/0);
    net::ChannelStats server_stats, client_stats;
    Tensor logits;
    std::exception_ptr server_error;
    std::thread server_thread([&] {
        try {
            auto t = listener.accept(/*timeout_ms=*/10'000);
            t->send_artifact_bytes(compiled.artifact().serialize());
            server.run(*t);
            server_stats = t->stats();
            t->close();
        } catch (...) {
            server_error = std::current_exception();
        }
    });
    auto t = net::connect("127.0.0.1", listener.port(), /*timeout_ms=*/10'000);
    const ModelArtifact artifact = ModelArtifact::deserialize(t->recv_artifact_bytes());
    const ClientModel client_model(artifact);
    const ClientSession client(client_model, config);
    logits = client.run(*t, input);
    client_stats = t->stats();
    t->close();
    server_thread.join();
    ASSERT_FALSE(server_error) << "server side threw";

    ASSERT_TRUE(logits.same_shape(reference.logits));
    EXPECT_TRUE(logits.allclose(reference.logits, 0.0F));
    expect_pi_stats_equal(stats_from_channel(client_stats), reference.stats,
                          "TCP shipped artifact vs local compile");
    expect_pi_stats_equal(stats_from_channel(server_stats),
                          stats_from_channel(client_stats),
                          "server vs client endpoint accounting");
}

TEST(WeightlessClient, InProcArtifactMessageMidProtocolIsRejected) {
    // The in-process transport must enforce the same §2 rule TCP does:
    // bootstrap and protocol messages are not interchangeable.
    net::DuplexChannel channel;
    net::InProcTransport server(channel, 0);
    net::InProcTransport client(channel, 1);
    server.send_artifact_bytes(std::vector<std::uint8_t>{1, 2, 3});
    EXPECT_THROW((void)client.recv_bytes(), Error);
    server.send_bytes(std::vector<std::uint8_t>{4});
    EXPECT_THROW((void)client.recv_artifact_bytes(), Error);
}

TEST(WeightlessClient, ArtifactFrameMidProtocolIsRejected) {
    // A DATA recv that meets an ARTIFACT frame (or vice versa) is a
    // protocol violation and must raise, not silently reinterpret bytes.
    net::TcpListener listener(/*port=*/0);
    std::exception_ptr server_error;
    std::thread server_thread([&] {
        try {
            auto t = listener.accept(/*timeout_ms=*/10'000);
            t->send_bytes(std::vector<std::uint8_t>{1, 2, 3});  // DATA, not ARTIFACT
            t->close();
        } catch (...) {
            server_error = std::current_exception();
        }
    });
    auto t = net::connect("127.0.0.1", listener.port(), /*timeout_ms=*/10'000);
    EXPECT_THROW((void)t->recv_artifact_bytes(), Error);
    t->close();
    server_thread.join();
    ASSERT_FALSE(server_error) << "server side threw";
}

}  // namespace
}  // namespace c2pi::pi
