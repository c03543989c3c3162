// Parity suite for the compile-time HE precompute + parallel serving
// path (PR 3): the tentpole claim is that the optimization is
// *transcript-preserving*. Asserted here, at three levels:
//
//  * mpc: the cache-based he_conv/he_matvec server against the span-based
//    seed path — byte-identical wire transcripts (every payload compared,
//    not just totals) and identical output shares, with and without a
//    thread pool;
//  * session: CompiledModel{num_threads=1} vs a multi-thread artifact —
//    bit-identical logits and identical per-phase ChannelStats across
//    Cheetah / Delphi / full-PI / crypto-clear-with-noise;
//  * transport: the multi-thread artifact over real loopback TCP vs the
//    in-process DuplexChannel — same logits, same per-phase accounting.
//
// Pinned SHA-256 digests of the HE linear transcripts (MpcLinearDigest)
// and of the OT and GC nonlinear layers (MpcNonlinearDigest) tie those
// paths to fixed bytes, so a rewrite of the protocol body must reproduce
// the wire exactly.

#include <gtest/gtest.h>

#include <thread>

#include "core/rng.hpp"
#include "crypto/hash.hpp"
#include "he/kernels.hpp"
#include "mpc/linear.hpp"
#include "mpc/nonlinear.hpp"
#include "net/runtime.hpp"
#include "net/tcp.hpp"
#include "pi/session.hpp"

#include "../examples/remote_common.hpp"
#include "recording_transport.hpp"

namespace c2pi {
namespace {

struct Transcript {
    std::vector<std::vector<std::uint8_t>> server_sent, client_sent;
    net::ChannelStats stats;
    std::vector<Ring> server_out, client_out;
};

/// One run of a linear-layer protocol with recorded transcripts. The
/// session seed fixes both parties' PRG streams, so two runs differ only
/// through the code path under test.
template <typename ServerFn, typename ClientFn>
Transcript run_recorded(const he::BfvContext& bfv, ServerFn&& server_fn, ClientFn&& client_fn) {
    const FixedPointFormat fmt{.frac_bits = 16};
    const crypto::Block128 session_seed{0xFEED, 0xF00D};
    net::DuplexChannel channel;
    Transcript tr;
    net::run_two_party(
        channel,
        [&](net::Transport& t) {
            RecordingTransport rec(t, tr.server_sent);
            mpc::PartyContext ctx(rec, fmt, bfv, session_seed);
            tr.server_out = server_fn(ctx);
        },
        [&](net::Transport& t) {
            RecordingTransport rec(t, tr.client_sent);
            mpc::PartyContext ctx(rec, fmt, bfv, session_seed);
            crypto::ChaCha20Prg key_prg(crypto::Block128{77, 78});
            ctx.set_client_key(bfv.keygen(key_prg));
            tr.client_out = client_fn(ctx);
        });
    tr.stats = channel.stats();
    return tr;
}

void expect_transcripts_equal(const Transcript& a, const Transcript& b, const char* what) {
    EXPECT_EQ(a.server_out, b.server_out) << what << ": server output shares diverged";
    EXPECT_EQ(a.client_out, b.client_out) << what << ": client output shares diverged";
    EXPECT_EQ(a.stats, b.stats) << what << ": channel stats diverged";
    ASSERT_EQ(a.server_sent.size(), b.server_sent.size()) << what << ": server message count";
    ASSERT_EQ(a.client_sent.size(), b.client_sent.size()) << what << ": client message count";
    for (std::size_t i = 0; i < a.server_sent.size(); ++i)
        EXPECT_EQ(a.server_sent[i], b.server_sent[i])
            << what << ": server ciphertext bytes of message " << i << " diverged";
    for (std::size_t i = 0; i < a.client_sent.size(); ++i)
        EXPECT_EQ(a.client_sent[i], b.client_sent[i])
            << what << ": client ciphertext bytes of message " << i << " diverged";
}

/// Random fixed-point ring values in [-2, 2].
std::vector<Ring> random_ring(std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    const FixedPointFormat fmt{.frac_bits = 16};
    std::vector<Ring> v(count);
    for (auto& x : v) x = fmt.encode(rng.uniform(-2.0F, 2.0F));
    return v;
}

TEST(MpcLinearParity, ConvCacheAndPoolPreserveTranscriptBytes) {
    // Geometry with two input groups so the per-(group, channel) weight
    // cache is exercised beyond the trivial single-group case.
    const he::ConvGeometry geo{.in_channels = 12,
                               .height = 8,
                               .width = 8,
                               .out_channels = 3,
                               .kernel = 3,
                               .stride = 1,
                               .pad = 1};
    const auto w = random_ring(
        static_cast<std::size_t>(geo.out_channels * geo.in_channels * geo.kernel * geo.kernel), 1);
    const auto bias = random_ring(static_cast<std::size_t>(geo.out_channels), 2);
    const auto x0 = random_ring(static_cast<std::size_t>(geo.in_channels * geo.height * geo.width), 3);
    const auto x1 = random_ring(static_cast<std::size_t>(geo.in_channels * geo.height * geo.width), 4);

    // Seed path: a serial cache and encoder built per call, the way the
    // protocol ran before layer caches were compiled once per model.
    const he::BfvContext serial({.n = 1024, .limbs = 4, .noise_bound = 4});
    const auto seed_path = run_recorded(
        serial,
        [&](mpc::PartyContext& ctx) {
            return mpc::he_conv_server(ctx, mpc::ConvLayerCache(ctx.bfv(), geo, w, bias), x0);
        },
        [&](mpc::PartyContext& ctx) {
            return mpc::he_conv_client(ctx, he::ConvEncoder(ctx.bfv(), geo), x1);
        });
    ASSERT_GT(seed_path.server_sent.size(), 0U);

    const mpc::ConvLayerCache serial_cache(serial, geo, w, bias);
    const auto cached = run_recorded(
        serial,
        [&](mpc::PartyContext& ctx) { return mpc::he_conv_server(ctx, serial_cache, x0); },
        [&](mpc::PartyContext& ctx) { return mpc::he_conv_client(ctx, serial_cache.enc, x1); });
    expect_transcripts_equal(seed_path, cached, "cache vs seed path");

    const core::ThreadPool pool(3);
    const he::BfvContext pooled({.n = 1024, .limbs = 4, .noise_bound = 4, .pool = &pool});
    const mpc::ConvLayerCache pooled_cache(pooled, geo, w, bias);
    const auto parallel = run_recorded(
        pooled,
        [&](mpc::PartyContext& ctx) { return mpc::he_conv_server(ctx, pooled_cache, x0); },
        [&](mpc::PartyContext& ctx) { return mpc::he_conv_client(ctx, pooled_cache.enc, x1); });
    expect_transcripts_equal(seed_path, parallel, "parallel cache vs seed path");
}

TEST(MpcLinearParity, MatvecCacheAndPoolPreserveTranscriptBytes) {
    const std::int64_t in = 96, out = 25;  // 1024/96 -> 10 rows/block, 3 blocks (last partial)
    const auto w = random_ring(static_cast<std::size_t>(in * out), 5);
    const auto bias = random_ring(static_cast<std::size_t>(out), 6);
    const auto x0 = random_ring(static_cast<std::size_t>(in), 7);
    const auto x1 = random_ring(static_cast<std::size_t>(in), 8);

    const he::BfvContext serial({.n = 1024, .limbs = 4, .noise_bound = 4});
    const auto seed_path = run_recorded(
        serial,
        [&](mpc::PartyContext& ctx) {
            return mpc::he_matvec_server(ctx, mpc::MatVecLayerCache(ctx.bfv(), in, out, w, bias),
                                         x0);
        },
        [&](mpc::PartyContext& ctx) {
            return mpc::he_matvec_client(ctx, he::MatVecEncoder(ctx.bfv(), in, out), x1);
        });

    const core::ThreadPool pool(3);
    const he::BfvContext pooled({.n = 1024, .limbs = 4, .noise_bound = 4, .pool = &pool});
    const mpc::MatVecLayerCache cache(pooled, in, out, w, bias);
    const auto parallel = run_recorded(
        pooled,
        [&](mpc::PartyContext& ctx) { return mpc::he_matvec_server(ctx, cache, x0); },
        [&](mpc::PartyContext& ctx) { return mpc::he_matvec_client(ctx, cache.enc, x1); });
    expect_transcripts_equal(seed_path, parallel, "parallel cache vs seed path");

    // The correctness of the shares themselves: reconstruct and compare
    // against the plain ring matvec (scale 2f).
    std::vector<Ring> x(static_cast<std::size_t>(in));
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = x0[i] + x1[i];
    const auto expect = mpc::ring_matvec(w, x, in, out);
    for (std::int64_t o = 0; o < out; ++o) {
        const Ring got = parallel.server_out[static_cast<std::size_t>(o)] +
                         parallel.client_out[static_cast<std::size_t>(o)];
        EXPECT_EQ(got, expect[static_cast<std::size_t>(o)] + bias[static_cast<std::size_t>(o)])
            << "row " << o;
    }
}

// ------------------------------------------------------ transcript digests ---
// The parity cases above compare two paths of one build. These pin the HE
// linear transcript itself, so a refactor of the protocol can be checked
// byte-for-byte against the code it replaced: per party, SHA-256 over
// every payload it sent (an 8-byte little-endian length, then the bytes),
// followed by its output shares.

std::string party_digest(const std::vector<std::vector<std::uint8_t>>& sent,
                         const std::vector<Ring>& out) {
    crypto::Sha256 h;
    const auto put_u64 = [&](std::uint64_t v) {
        std::uint8_t le[8];
        for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        h.update(le);
    };
    for (const auto& payload : sent) {
        put_u64(payload.size());
        h.update(payload);
    }
    for (const Ring v : out) put_u64(v);
    static constexpr char kHex[] = "0123456789abcdef";
    std::string hex;
    for (const std::uint8_t b : h.finish()) {
        hex += kHex[b >> 4];
        hex += kHex[b & 15];
    }
    return hex;
}

void expect_digests(const Transcript& tr, const char* server, const char* client) {
    EXPECT_EQ(party_digest(tr.server_sent, tr.server_out), server) << "server transcript";
    EXPECT_EQ(party_digest(tr.client_sent, tr.client_out), client) << "client transcript";
}

Transcript run_conv(const he::ConvGeometry& geo, bool with_bias, std::uint64_t data_seed) {
    const auto w = random_ring(
        static_cast<std::size_t>(geo.out_channels * geo.in_channels * geo.kernel * geo.kernel),
        data_seed);
    const auto bias =
        with_bias ? random_ring(static_cast<std::size_t>(geo.out_channels), data_seed + 1)
                  : std::vector<Ring>{};
    const auto numel = static_cast<std::size_t>(geo.in_channels * geo.height * geo.width);
    const auto x0 = random_ring(numel, data_seed + 2);
    const auto x1 = random_ring(numel, data_seed + 3);
    const he::BfvContext bfv({.n = 1024, .limbs = 4, .noise_bound = 4});
    const mpc::ConvLayerCache cache(bfv, geo, w, bias);
    return run_recorded(
        bfv, [&](mpc::PartyContext& ctx) { return mpc::he_conv_server(ctx, cache, x0); },
        [&](mpc::PartyContext& ctx) { return mpc::he_conv_client(ctx, cache.enc, x1); });
}

TEST(MpcLinearDigest, ConvTwoInputGroups) {
    const auto tr = run_conv({.in_channels = 12, .height = 8, .width = 8, .out_channels = 3,
                              .kernel = 3, .stride = 1, .pad = 1},
                             /*with_bias=*/true, 1);
    expect_digests(tr,
                   "01e86471209205a49cfc4a73366649e13af70758ac9a270506fe60ff93c6e82e",
                   "4330a89f45cefd118838636549fb800fdd00ece22d19d8d0925a6ee44bbc9421");
}

TEST(MpcLinearDigest, ConvStride2NoPadNoBias) {
    const auto tr = run_conv({.in_channels = 5, .height = 9, .width = 9, .out_channels = 4,
                              .kernel = 3, .stride = 2, .pad = 0},
                             /*with_bias=*/false, 9);
    expect_digests(tr,
                   "047b1162c1c4cb2b2dc0ce09d92e9ee201f1824d2717f65e544d5f832356132e",
                   "9ff5ede0ea29aac6e2ac826d0c6442b2fb3fe52445b07246fb25ed162efcf17f");
}

TEST(MpcLinearDigest, MatvecPartialLastBlock) {
    const std::int64_t in = 96, out = 25;  // 10 rows/block, 3 blocks (last partial)
    const auto w = random_ring(static_cast<std::size_t>(in * out), 5);
    const auto bias = random_ring(static_cast<std::size_t>(out), 6);
    const auto x0 = random_ring(static_cast<std::size_t>(in), 7);
    const auto x1 = random_ring(static_cast<std::size_t>(in), 8);
    const he::BfvContext bfv({.n = 1024, .limbs = 4, .noise_bound = 4});
    const mpc::MatVecLayerCache cache(bfv, in, out, w, bias);
    const auto tr = run_recorded(
        bfv, [&](mpc::PartyContext& ctx) { return mpc::he_matvec_server(ctx, cache, x0); },
        [&](mpc::PartyContext& ctx) { return mpc::he_matvec_client(ctx, cache.enc, x1); });
    expect_digests(tr,
                   "3431c933ba313339ee3ab0d43a7ceb7830833153cffdbfa2e93d4861f65d9c6b",
                   "e108a454374984e3ffb670e11838b83dedd503591024c4bf4102112a3af5e753");
}

// The same pinning for the OT and GC nonlinear layers. Sizes end mid-way
// through every batching unit: the OT hash chunks, the GC lockstep lane
// groups and (600 > 512) the GC flight chunk.

Transcript run_relu(mpc::NonlinearBackend backend, std::size_t n) {
    const auto x0 = random_ring(n, 31);
    const auto x1 = random_ring(n, 32);
    const he::BfvContext bfv({.n = 1024, .limbs = 2, .noise_bound = 4});
    return run_recorded(
        bfv, [&](mpc::PartyContext& ctx) { return mpc::secure_relu(ctx, x0, backend); },
        [&](mpc::PartyContext& ctx) { return mpc::secure_relu(ctx, x1, backend); });
}

Transcript run_maxpool(mpc::NonlinearBackend backend) {
    const Shape shape{3, 6, 6};
    const auto x0 = random_ring(3 * 6 * 6, 33);
    const auto x1 = random_ring(3 * 6 * 6, 34);
    const he::BfvContext bfv({.n = 1024, .limbs = 2, .noise_bound = 4});
    return run_recorded(
        bfv,
        [&](mpc::PartyContext& ctx) {
            return mpc::secure_maxpool(ctx, mpc::RingTensor(shape, x0), 2, 2, backend).data;
        },
        [&](mpc::PartyContext& ctx) {
            return mpc::secure_maxpool(ctx, mpc::RingTensor(shape, x1), 2, 2, backend).data;
        });
}

TEST(MpcNonlinearDigest, OtRelu) {
    expect_digests(run_relu(mpc::NonlinearBackend::kOtMillionaire, 1000),
                   "30a10d28baec3826f5bb80da14e5321022da67db50bc6b1a2020209ac7df42fc",
                   "f40334e294df046612937ff92aeffcbcaf4bc3da12fb107ca3d161ab5668d0fd");
}

TEST(MpcNonlinearDigest, OtMaxpool) {
    expect_digests(run_maxpool(mpc::NonlinearBackend::kOtMillionaire),
                   "0e46b5881f49967b2dc0c129ced46b5b793f2b9a07340fbf2eff657ebad152ff",
                   "2873b03a51f11f3943338c5823d7d16557ebdd197d467f28a0a5d3bc667f7103");
}

TEST(MpcNonlinearDigest, GcRelu) {
    expect_digests(run_relu(mpc::NonlinearBackend::kGarbledCircuit, 600),
                   "2fd8cfee82d03e068cb472f0553925645749804e74412e1d31f1b166bddb25a8",
                   "e73181c6b108d260a092d02e27eea630f4cdc776307824407e75890e92fa5507");
}

TEST(MpcNonlinearDigest, GcMaxpool) {
    expect_digests(run_maxpool(mpc::NonlinearBackend::kGarbledCircuit),
                   "37f792f0f126056a989d6e6363ece753e5eefb0176873088a01f48d5fe3905c5",
                   "22896fd5f9f5278b7833a395534bd69e5789db93a0d527b1b12a6d0a7b9b6ae2");
}

// ----------------------------------------------------- session-level parity ---

void expect_pi_stats_equal(const pi::PiStats& a, const pi::PiStats& b, const char* what) {
    EXPECT_EQ(a.offline_bytes, b.offline_bytes) << what;
    EXPECT_EQ(a.online_bytes, b.online_bytes) << what;
    EXPECT_EQ(a.offline_flights, b.offline_flights) << what;
    EXPECT_EQ(a.online_flights, b.online_flights) << what;
}

void check_thread_parity(bool full_pi, const pi::SessionConfig& config) {
    const nn::Sequential model = demo::make_demo_model();
    auto serial_opts = demo::demo_compile_options(full_pi);
    serial_opts.num_threads = 1;
    auto parallel_opts = demo::demo_compile_options(full_pi);
    parallel_opts.num_threads = 3;
    const pi::CompiledModel serial(model, serial_opts);
    const pi::CompiledModel parallel(model, parallel_opts);
    EXPECT_EQ(serial.num_threads(), 1);
    EXPECT_EQ(parallel.num_threads(), 3);

    Rng rng(200);
    const Tensor input = Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F);
    const pi::PiResult a = pi::run_private_inference(serial, config, input);
    const pi::PiResult b = pi::run_private_inference(parallel, config, input);

    ASSERT_TRUE(a.logits.same_shape(b.logits));
    EXPECT_TRUE(a.logits.allclose(b.logits, 0.0F))
        << "num_threads changed the inference result";
    expect_pi_stats_equal(a.stats, b.stats, "serial vs parallel artifact");
}

TEST(SessionThreadParity, CheetahCryptoClearWithNoise) {
    check_thread_parity(/*full_pi=*/false, pi::SessionConfig{.noise_lambda = 0.05F, .seed = 42});
}

TEST(SessionThreadParity, DelphiOfflineLinear) {
    check_thread_parity(/*full_pi=*/false,
                        pi::SessionConfig{.backend = pi::PiBackend::kDelphi, .seed = 11});
}

TEST(SessionThreadParity, FullPiCheetah) {
    check_thread_parity(/*full_pi=*/true, pi::SessionConfig{.seed = 9});
}

TEST(SessionThreadParity, WeightlessClientModelSkipsWeightPrecompute) {
    // An input-owner process compiles a pi::ClientModel from the public
    // artifact alone: encoder geometry only — no weight NTTs, no weight
    // memory, same protocol. Serve it against the server's CompiledModel
    // and require the logits to match the shared-artifact reference.
    // (A ServerSession over a ClientModel is not a runtime error anymore:
    // the type split makes it unrepresentable.)
    const nn::Sequential model = demo::make_demo_model();
    const pi::SessionConfig config{.noise_lambda = 0.05F, .seed = 42};
    const pi::CompiledModel server_side(model, demo::demo_compile_options(/*full_pi=*/false));
    const pi::ClientModel client_side(server_side.artifact());
    for (const auto& cache : client_side.layer_caches()) {
        if (cache.conv != nullptr) EXPECT_TRUE(cache.conv->w_ntt.empty());
        if (cache.matvec != nullptr) EXPECT_TRUE(cache.matvec->w_ntt.empty());
    }

    Rng rng(200);
    const Tensor input = Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F);
    const pi::PiResult reference = pi::run_private_inference(server_side, config, input);

    const pi::ServerSession server(server_side, config);
    const pi::ClientSession client(client_side, config);
    net::DuplexChannel channel;
    Tensor logits;
    (void)net::run_two_party(
        channel, [&](net::Transport& t) { server.run(t); },
        [&](net::Transport& t) { logits = client.run(t, input); });
    ASSERT_TRUE(logits.same_shape(reference.logits));
    EXPECT_TRUE(logits.allclose(reference.logits, 0.0F));
}

// ----------------------------------------------- kernel-dispatch parity ---
// The SIMD kernel tiers (he/kernels*.cpp) claim bit-identical outputs to
// the scalar reference, so swapping the dispatch must be invisible at
// every level of a full private inference: logits, every wire payload,
// and the per-phase traffic accounting.

struct SessionTranscript {
    std::vector<std::vector<std::uint8_t>> server_sent, client_sent;
    Tensor logits;
    net::ChannelStats client_stats;
};

SessionTranscript run_full_session(const he::kernels::Kernels* forced, pi::PiBackend backend,
                                   mpc::NonlinearBackend nonlinear) {
    // Force the tier for the whole run, compile included: weight
    // precompute (NTT + Shoup companions) goes through the kernels too.
    he::kernels::set_active_for_testing(forced);
    const nn::Sequential model = demo::make_demo_model();
    const pi::CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/true));
    pi::SessionConfig config{.backend = backend, .seed = 5150};
    config.nonlinear = nonlinear;
    const pi::ServerSession server(compiled, config);
    const pi::ClientModel client_model(compiled.artifact(), compiled.num_threads());
    const pi::ClientSession client(client_model, config);
    Rng rng(400);
    const Tensor input = Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F);

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
            tr.client_stats = rec.stats();
        });
    he::kernels::set_active_for_testing(nullptr);
    return tr;
}

TEST(KernelDispatchParity, ScalarVsBestBitIdenticalAcrossBackends) {
    const auto* best = &he::kernels::active();
    std::cout << "[ kernels  ] parity run: scalar vs " << best->name << "\n";
    if (best->tier == he::kernels::Tier::kScalar)
        GTEST_SKIP() << "no SIMD tier on this CPU/build; scalar-vs-scalar is vacuous";

    struct Combo {
        const char* name;
        pi::PiBackend backend;
        mpc::NonlinearBackend nonlinear;
    };
    const Combo combos[] = {
        {"cheetah/ot", pi::PiBackend::kCheetah, mpc::NonlinearBackend::kOtMillionaire},
        {"cheetah/fss", pi::PiBackend::kCheetah, mpc::NonlinearBackend::kFss},
        {"delphi/gc", pi::PiBackend::kDelphi, mpc::NonlinearBackend::kGarbledCircuit},
        {"delphi/fss", pi::PiBackend::kDelphi, mpc::NonlinearBackend::kFss},
    };
    for (const auto& combo : combos) {
        const auto scalar_run =
            run_full_session(he::kernels::scalar_kernels(), combo.backend, combo.nonlinear);
        const auto best_run = run_full_session(best, combo.backend, combo.nonlinear);

        ASSERT_TRUE(best_run.logits.same_shape(scalar_run.logits)) << combo.name;
        EXPECT_TRUE(best_run.logits.allclose(scalar_run.logits, 0.0F))
            << combo.name << ": kernel tier changed the logits";
        EXPECT_EQ(best_run.client_stats, scalar_run.client_stats)
            << combo.name << ": per-phase stats diverged";
        ASSERT_EQ(best_run.server_sent.size(), scalar_run.server_sent.size()) << combo.name;
        ASSERT_EQ(best_run.client_sent.size(), scalar_run.client_sent.size()) << combo.name;
        for (std::size_t i = 0; i < scalar_run.server_sent.size(); ++i)
            EXPECT_EQ(best_run.server_sent[i], scalar_run.server_sent[i])
                << combo.name << ": server message " << i << " diverged";
        for (std::size_t i = 0; i < scalar_run.client_sent.size(); ++i)
            EXPECT_EQ(best_run.client_sent[i], scalar_run.client_sent[i])
                << combo.name << ": client message " << i << " diverged";
    }
}

// --------------------------------------------------- transport-level parity ---

TEST(SessionThreadParity, MultiThreadArtifactOverTcpMatchesInProc) {
    const nn::Sequential model = demo::make_demo_model();
    auto opts = demo::demo_compile_options(/*full_pi=*/false);
    opts.num_threads = 3;
    const pi::CompiledModel compiled(model, opts);
    const pi::SessionConfig config{.noise_lambda = 0.05F, .seed = 21};

    Rng rng(300);
    const Tensor input = Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F);
    const pi::PiResult reference = pi::run_private_inference(compiled, config, input);

    const pi::ServerSession server(compiled, config);
    const pi::ClientModel client_model(compiled.artifact(), compiled.num_threads());
    const pi::ClientSession client(client_model, config);
    net::TcpListener listener(/*port=*/0);
    net::ChannelStats client_stats;
    Tensor logits;
    std::exception_ptr server_error;
    std::thread server_thread([&] {
        try {
            auto t = listener.accept(/*timeout_ms=*/10'000);
            server.run(*t);
            t->close();
        } catch (...) {
            server_error = std::current_exception();
        }
    });
    auto t = net::connect("127.0.0.1", listener.port(), /*timeout_ms=*/10'000);
    logits = client.run(*t, input);
    client_stats = t->stats();
    t->close();
    server_thread.join();
    ASSERT_FALSE(server_error) << "server side threw";

    ASSERT_TRUE(logits.same_shape(reference.logits));
    EXPECT_TRUE(logits.allclose(reference.logits, 0.0F));
    expect_pi_stats_equal(pi::stats_from_channel(client_stats), reference.stats,
                          "TCP vs in-process with threads");
}

}  // namespace
}  // namespace c2pi
