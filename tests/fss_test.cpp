// Unit and integration tests for the FSS comparison subsystem
// (src/fss/): the DCF primitive against a plaintext comparison oracle
// (single keys and ragged tiled batches), the interval-containment ReLU
// material (one DCF per comparison, also at chosen masks), the dealt key
// bytes against pinned digests (serial and on a thread pool), pooled
// decoding and evaluation against serial, the key record codec, the
// client's schedule check and the one-batch key pool, and the kFss
// backend at the session layer — cross-backend logit parity
// (bit-identical vs GC and OT), the preprocessing traffic bucket, and
// the typed NonlinearMismatch negotiation error. The
// secure_relu/secure_maxpool protocol-level coverage lives in
// mpc_test.cpp (kFss is a parameterization there); TCP-transport parity
// for kFss lives next to the other transport parity cases in
// tcp_test.cpp.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "crypto/hash.hpp"
#include "crypto/ot.hpp"
#include "fss/compare.hpp"
#include "fss/dcf.hpp"
#include "fss/key_pool.hpp"
#include "net/runtime.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "pi/session.hpp"

namespace c2pi::fss {
namespace {

constexpr Ring kMid = Ring{1} << 63;
constexpr Ring kMax = ~Ring{0};

/// Plaintext oracle: f(x) = beta if x < alpha else 0, unsigned.
DcfPayload oracle(Ring alpha, const DcfPayload& beta, Ring x) {
    return x < alpha ? beta : DcfPayload{};
}

TEST(Dcf, MatchesComparisonOracleOnBoundaryAndRandomInputs) {
    crypto::ChaCha20Prg prg(crypto::Block128{0x5EED, 0xF55}, 1);
    const DcfPayload beta{1, 0x1234'5678'9ABC'DEF0ULL};

    std::vector<Ring> alphas = {0, 1, kMid, kMax};
    for (int i = 0; i < 4; ++i) alphas.push_back(prg.next_u64());

    for (const Ring alpha : alphas) {
        const DcfKeyPair keys = dcf_gen(alpha, beta, prg);
        std::vector<Ring> xs = {0,         1,         alpha - 1, alpha,
                                alpha + 1, kMid - 1,  kMid,      kMax};
        for (int i = 0; i < 8; ++i) xs.push_back(prg.next_u64());
        for (const Ring x : xs) {
            const DcfPayload sum = dcf_eval(keys.k0, 0, x) + dcf_eval(keys.k1, 1, x);
            EXPECT_EQ(sum, oracle(alpha, beta, x))
                << "alpha=" << alpha << " x=" << x << " (u=" << sum.u << " v=" << sum.v << ")";
        }
    }
}

TEST(Dcf, SingleKeyRevealsNothingObviouslyStructured) {
    // Not a cryptographic test — just a sanity check that one share alone
    // is not the function: party 0's eval at points straddling alpha must
    // not already equal the oracle (the correction from party 1 matters).
    crypto::ChaCha20Prg prg(crypto::Block128{7, 7}, 2);
    const Ring alpha = kMid;
    const DcfPayload beta{1, 99};
    const DcfKeyPair keys = dcf_gen(alpha, beta, prg);
    int disagreements = 0;
    for (Ring x : {Ring{0}, alpha - 1, alpha, alpha + 1, kMax})
        if (dcf_eval(keys.k0, 0, x) != oracle(alpha, beta, x)) ++disagreements;
    EXPECT_GT(disagreements, 0);
}

TEST(Dcf, KeyCodecRoundTripsBitExactly) {
    crypto::ChaCha20Prg prg(crypto::Block128{0xC0DE, 0xC}, 3);
    const DcfKeyPair keys = dcf_gen(prg.next_u64(), DcfPayload{1, prg.next_u64()}, prg);

    std::vector<std::uint8_t> bytes(DcfKey::kSerializedBytes);
    keys.k1.serialize_into(bytes.data());
    const DcfKey back = DcfKey::deserialize(bytes.data());

    std::vector<std::uint8_t> again(DcfKey::kSerializedBytes);
    back.serialize_into(again.data());
    EXPECT_EQ(bytes, again);
    for (int i = 0; i < 16; ++i) {
        const Ring x = prg.next_u64();
        EXPECT_EQ(dcf_eval(back, 1, x), dcf_eval(keys.k1, 1, x));
    }
}

/// The probe points of the batch test: 0, alpha-1, alpha, alpha+1,
/// 2^63 and 2^64-1.
Ring probe_point(int which, Ring alpha) {
    switch (which) {
        case 0: return 0;
        case 1: return alpha - 1;
        case 2: return alpha;
        case 3: return alpha + 1;
        case 4: return kMid;
        default: return kMax;
    }
}

TEST(Dcf, BatchedEvaluationSumsToOracleOnRaggedSizes) {
    // Sizes that are not multiples of the tile or of any kernel width, so
    // full tiles, short tiles and scalar kernel tails all run.
    for (const std::size_t n : {1UL, 17UL, 257UL}) {
        crypto::ChaCha20Prg prg(crypto::Block128{0xBA7C, n}, 6);
        const Ring edge_alphas[] = {0, 1, kMid, kMax};
        std::vector<DcfGenInput> in(n);
        for (std::size_t i = 0; i < n; ++i) {
            in[i].alpha = i < std::size(edge_alphas) ? edge_alphas[i] : prg.next_u64();
            in[i].beta = {prg.next_u64(), prg.next_u64()};
            in[i].root0 = prg.next_block();
            in[i].root1 = prg.next_block();
        }
        std::vector<DcfKey> k0(n), k1(n);
        std::vector<DcfKey*> out0(n), out1(n);
        for (std::size_t i = 0; i < n; ++i) {
            out0[i] = &k0[i];
            out1[i] = &k1[i];
        }
        dcf_gen_batch(in, out0, out1);
        const std::vector<const DcfKey*> keys0(out0.begin(), out0.end());
        const std::vector<const DcfKey*> keys1(out1.begin(), out1.end());

        for (int which = 0; which < 6; ++which) {
            std::vector<Ring> xs(n);
            for (std::size_t i = 0; i < n; ++i) xs[i] = probe_point(which, in[i].alpha);
            std::vector<DcfPayload> share0(n), share1(n);
            dcf_eval_batch(keys0, 0, xs, share0);
            dcf_eval_batch(keys1, 1, xs, share1);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(share0[i] + share1[i], oracle(in[i].alpha, in[i].beta, xs[i]))
                    << "n=" << n << " key " << i << " point " << which;
                ASSERT_EQ(share1[i], dcf_eval(k1[i], 1, xs[i])) << "n=" << n << " key " << i;
            }
        }
    }
}

TEST(FssRelu, MaterialEvaluatesToReluOverSignedBoundaryValues) {
    crypto::ChaCha20Prg prg(crypto::Block128{0xABCD, 0x1}, 4);
    // Signed boundary values encoded into the unsigned ring: zero, +/-1,
    // the most negative value (ring midpoint), the most positive value.
    const std::vector<Ring> ys = {0,        1,        Ring{0} - 1, kMid,
                                  kMid - 1, kMid + 1, 1000,        Ring{0} - 1000};
    for (int trial = 0; trial < 8; ++trial) {
        const ReluKeyPair pair = gen_relu_material(prg);
        const Ring r = pair.server.r_share + pair.client.r_share;
        for (const Ring y : ys) {
            const Ring z = y + r;  // the reconstructed masked value
            const Ring got = eval_relu(pair.server, 0, z) + eval_relu(pair.client, 1, z);
            const Ring want = y < kMid ? y : 0;  // ReLU under signed semantics
            EXPECT_EQ(got, want) << "trial=" << trial << " y=" << y;
        }
        for (int i = 0; i < 8; ++i) {
            const Ring y = prg.next_u64();
            const Ring z = y + r;
            EXPECT_EQ(eval_relu(pair.server, 0, z) + eval_relu(pair.client, 1, z),
                      y < kMid ? y : 0);
        }
    }
}

/// The one-key identity at chosen masks: each comparison's material is
/// built by hand from dcf_gen(r + 2^63, (1, r)) and a drawn share of r,
/// for masks at both ends and on both sides of the ring midpoint, so z
/// takes both values of z_hi. Both parties' batched outputs must sum to
/// ReLU(y), serially and with the evaluation tiles on a pool.
TEST(FssRelu, OneKeyIdentityHoldsAtChosenMasks) {
    crypto::ChaCha20Prg prg(crypto::Block128{0x1DE7, 0x63}, 20);
    const Ring masks[] = {0, 1, kMid - 1, kMid, kMid + 1, kMax};
    const Ring ys[] = {0, 1, Ring{0} - 1, kMid, kMid - 1, 1000, Ring{0} - 1000};
    std::vector<ReluKeyShare> server, client;
    std::vector<Ring> y_of, z;
    for (const Ring r : masks) {
        const DcfKeyPair keys = dcf_gen(r + kMid, DcfPayload{1, r}, prg);
        const Ring r_share = prg.next_u64();
        for (const Ring y : ys) {
            server.push_back({.r_share = r_share, .key = keys.k0});
            client.push_back({.r_share = r - r_share, .key = keys.k1});
            y_of.push_back(y);
            z.push_back(y + r);
        }
    }
    const core::ThreadPool threads(4);
    for (const core::ThreadPool* pool : {static_cast<const core::ThreadPool*>(nullptr),
                                         &threads}) {
        std::vector<Ring> out0(z.size()), out1(z.size());
        eval_relu_batch(server, 0, z, out0, pool);
        eval_relu_batch(client, 1, z, out1, pool);
        for (std::size_t i = 0; i < z.size(); ++i)
            EXPECT_EQ(out0[i] + out1[i], y_of[i] < kMid ? y_of[i] : 0)
                << "r=" << z[i] - y_of[i] << " y=" << y_of[i] << " pooled=" << (pool != nullptr);
    }
}

/// KEYS-frame payload: the records back to back, serialize_into each.
std::vector<std::uint8_t> encode_records(std::span<const ReluKeyShare> keys) {
    std::vector<std::uint8_t> out(keys.size() * ReluKeyShare::kSerializedBytes);
    for (std::size_t i = 0; i < keys.size(); ++i)
        keys[i].serialize_into(out.data() + i * ReluKeyShare::kSerializedBytes);
    return out;
}

TEST(FssRelu, RecordCodecRoundTripsBitExactly) {
    crypto::ChaCha20Prg prg(crypto::Block128{0xBA7C, 0x2}, 5);
    std::vector<ReluKeyShare> batch;
    for (int i = 0; i < 3; ++i) batch.push_back(gen_relu_material(prg).client);

    const std::vector<std::uint8_t> bytes = encode_records(batch);
    ASSERT_EQ(bytes.size(), 3 * ReluKeyShare::kSerializedBytes);
    std::vector<ReluKeyShare> back;
    for (std::size_t off = 0; off < bytes.size(); off += ReluKeyShare::kSerializedBytes)
        back.push_back(ReluKeyShare::deserialize(bytes.data() + off));
    EXPECT_EQ(encode_records(back), bytes);
}

/// A session deals once: the pool holds one batch, refuses a second
/// while keys remain, and refuses to hand out keys it does not hold.
TEST(FssKeyPool, HoldsOneBatchAndRefusesToOverdraw) {
    crypto::ChaCha20Prg prg(crypto::Block128{0x9001, 0x1}, 9);
    KeyBatch batch;
    for (int i = 0; i < 3; ++i) batch.push_back(gen_relu_material(prg).server);
    const std::vector<std::uint8_t> bytes = encode_records(batch);

    KeyPool pool;
    pool.push(batch);
    EXPECT_EQ(pool.size(), 3U);
    EXPECT_THROW(pool.push(batch), Error);
    EXPECT_EQ(pool.size(), 3U);

    const std::span<const ReluKeyShare> first = pool.take(2);
    EXPECT_EQ(encode_records(first),
              std::vector<std::uint8_t>(bytes.begin(),
                                        bytes.begin() + 2 * ReluKeyShare::kSerializedBytes));
    EXPECT_THROW((void)pool.take(2), Error);
    EXPECT_EQ(pool.size(), 1U);
    EXPECT_EQ(encode_records(pool.take(1)),
              std::vector<std::uint8_t>(bytes.begin() + 2 * ReluKeyShare::kSerializedBytes,
                                        bytes.end()));
    EXPECT_EQ(pool.size(), 0U);
    EXPECT_THROW((void)pool.take(1), Error);
}

std::string sha256_hex(std::span<const std::uint8_t> bytes) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t b : crypto::Sha256::digest(bytes)) {
        out += kHex[b >> 4];
        out += kHex[b & 0xF];
    }
    return out;
}

/// Both halves of 257 dealt comparisons from a pinned PRG, against
/// digests of the key material 257 gen_relu_material calls produce, one
/// tree at a time: tiling, lane widths and the kernel tier must not
/// change one bit. 257 is no multiple of any tile or lane width.
TEST(FssRelu, DealtKeysMatchPinnedDigests) {
    constexpr std::size_t kCount = 257;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> server_halves;
    net::DuplexChannel channel;
    (void)net::run_two_party(
        channel,
        [&](net::Transport& t) {
            crypto::ChaCha20Prg prg(crypto::Block128{0x601D'E11, 0x257}, 18);
            KeyPool pool;
            dealer_replenish(t, prg, pool, kCount);
            server_halves = encode_records(pool.take(kCount));
        },
        [&](net::Transport& t) { payload = t.recv_keys_bytes(); });
    ASSERT_EQ(payload.size(), kCount * ReluKeyShare::kSerializedBytes);
    EXPECT_EQ(sha256_hex(payload),
              "01b028931d9f2ccb4f3f697c2ced026a3e0a73836798e805d6b7dfa0fa113662");
    EXPECT_EQ(sha256_hex(server_halves),
              "17bfbd5c492e4d7c7b472774013e148df855f6355d9a6e79002c22fc778a7f23");
}

/// DealtKeysMatchPinnedDigests dealt on a four-thread pool: the tiles run
/// on any thread in any order, and both halves must still match the
/// serial dealer's pinned digests.
TEST(FssRelu, PooledDealingMatchesPinnedDigests) {
    constexpr std::size_t kCount = 257;
    const core::ThreadPool threads(4);
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> server_halves;
    net::DuplexChannel channel;
    (void)net::run_two_party(
        channel,
        [&](net::Transport& t) {
            crypto::ChaCha20Prg prg(crypto::Block128{0x601D'E11, 0x257}, 18);
            KeyPool pool;
            dealer_replenish(t, prg, pool, kCount, &threads);
            server_halves = encode_records(pool.take(kCount));
        },
        [&](net::Transport& t) { payload = t.recv_keys_bytes(); });
    ASSERT_EQ(payload.size(), kCount * ReluKeyShare::kSerializedBytes);
    EXPECT_EQ(sha256_hex(payload),
              "01b028931d9f2ccb4f3f697c2ced026a3e0a73836798e805d6b7dfa0fa113662");
    EXPECT_EQ(sha256_hex(server_halves),
              "17bfbd5c492e4d7c7b472774013e148df855f6355d9a6e79002c22fc778a7f23");
}

/// The client's pooled decode and both parties' pooled evaluation equal
/// the serial ones, on sizes below, at and just past one 32-comparison
/// evaluation tile and one 64-comparison decoding tile, and on a ragged
/// many-tile batch.
TEST(FssRelu, PooledEvaluationAndDecodeMatchSerial) {
    const core::ThreadPool threads(4);
    for (const std::size_t n : {1UL, 31UL, 32UL, 33UL, 64UL, 65UL, 1000UL}) {
        crypto::ChaCha20Prg prg(crypto::Block128{0x9001ED, n}, 19);
        std::vector<ReluKeyShare> server(n), client(n);
        std::vector<Ring> ys(n), z(n);
        for (std::size_t i = 0; i < n; ++i) {
            const ReluKeyPair pair = gen_relu_material(prg);
            server[i] = pair.server;
            client[i] = pair.client;
            ys[i] = prg.next_u64();
            z[i] = ys[i] + pair.server.r_share + pair.client.r_share;
        }

        const std::vector<std::uint8_t> shipped = encode_records(client);
        const auto decode = [&](const core::ThreadPool* pool_threads) {
            KeyPool pool;
            net::DuplexChannel channel;
            (void)net::run_two_party(
                channel, [&](net::Transport& t) { t.send_keys_bytes(shipped); },
                [&](net::Transport& t) { client_replenish(t, pool, n, pool_threads); });
            return encode_records(pool.take(n));
        };
        const std::vector<std::uint8_t> serial_decoded = decode(nullptr);
        EXPECT_EQ(serial_decoded, shipped) << "n=" << n;
        EXPECT_EQ(decode(&threads), serial_decoded) << "n=" << n;

        for (const int party : {0, 1}) {
            const std::vector<ReluKeyShare>& keys = party == 0 ? server : client;
            std::vector<Ring> serial(n), pooled(n);
            eval_relu_batch(keys, party, z, serial);
            eval_relu_batch(keys, party, z, pooled, &threads);
            EXPECT_EQ(pooled, serial) << "n=" << n << " party=" << party;
        }
        std::vector<Ring> out0(n), out1(n);
        eval_relu_batch(server, 0, z, out0, &threads);
        eval_relu_batch(client, 1, z, out1, &threads);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(out0[i] + out1[i], ys[i] < kMid ? ys[i] : 0) << "n=" << n << " i=" << i;
    }
}

TEST(FssRelu, BatchedEvaluationMatchesReluOnRaggedSizes) {
    for (const std::size_t n : {1UL, 17UL, 257UL}) {
        crypto::ChaCha20Prg prg(crypto::Block128{0x5E1U, n}, 7);
        std::vector<ReluKeyShare> server(n), client(n);
        std::vector<Ring> ys(n), z(n);
        for (std::size_t i = 0; i < n; ++i) {
            ReluKeyPair pair = gen_relu_material(prg);
            server[i] = pair.server;
            client[i] = pair.client;
            ys[i] = i % 3 == 0 ? Ring{0} - i : prg.next_u64();
            z[i] = ys[i] + pair.server.r_share + pair.client.r_share;
        }
        std::vector<Ring> out0(n), out1(n);
        eval_relu_batch(server, 0, z, out0);
        eval_relu_batch(client, 1, z, out1);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(out0[i] + out1[i], ys[i] < kMid ? ys[i] : 0) << "n=" << n << " i=" << i;
    }
}

/// A scripted dealer ships a well-formed KEYS frame one record short of
/// the plan-derived schedule, then one record long: the client must
/// refuse with the schedule error and pool nothing.
TEST(FssRelu, ClientRejectsKeysFrameOffSchedule) {
    constexpr std::size_t kScheduled = 3;
    for (const std::size_t shipped : {kScheduled - 1, kScheduled + 1}) {
        KeyPool pool;
        net::DuplexChannel channel;
        try {
            (void)net::run_two_party(
                channel,
                [&](net::Transport& t) {
                    crypto::ChaCha20Prg prg(crypto::Block128{0x5C4E, 0xD}, 8);
                    std::vector<ReluKeyShare> halves;
                    for (std::size_t i = 0; i < shipped; ++i)
                        halves.push_back(gen_relu_material(prg).client);
                    t.send_keys_bytes(encode_records(halves));
                },
                [&](net::Transport& t) { client_replenish(t, pool, kScheduled); });
            ADD_FAILURE() << "client pooled " << shipped << " records against a schedule of "
                          << kScheduled;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("plan-derived schedule"), std::string::npos)
                << e.what();
        }
        EXPECT_EQ(pool.size(), 0U) << "shipped " << shipped;
    }
}

// ------------------------------------------------- session integration ---

/// Smaller than pi_test's reference net (one conv block) but still
/// covering every nonlinear protocol: ReLU and 2x2 maxpool.
nn::Sequential make_fss_test_model() {
    Rng rng(21);
    nn::Sequential m;
    m.emplace<nn::Conv2d>(3, 4, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::MaxPool2d>(2, 2);
    m.emplace<nn::Flatten>();
    m.emplace<nn::Linear>(4 * 4 * 4, 8, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::Linear>(8, 5, rng);
    return m;
}

pi::CompiledModel::Options fss_compile_options(bool full_pi) {
    pi::CompiledModel::Options opts;
    opts.input_chw = {3, 8, 8};
    opts.he_ring_degree = 1024;
    if (!full_pi) opts.boundary = nn::CutPoint{.linear_index = 1, .after_relu = true};
    return opts;
}

Tensor make_fss_test_input() {
    Rng rng(22);
    return Tensor::uniform({1, 3, 8, 8}, rng, 0.0F, 1.0F);
}

struct ParityCase {
    const char* name;
    pi::PiBackend backend;
    bool full_pi;
};

class CrossBackendParityTest : public ::testing::TestWithParam<ParityCase> {};

/// The tentpole acceptance criterion: for one compiled model and one
/// input, the three nonlinear backends must produce BIT-IDENTICAL
/// logits. The nonlinear protocols differ in how shares are produced
/// but reconstruct the same ring values, and everything downstream of
/// reconstruction is deterministic.
TEST_P(CrossBackendParityTest, LogitsBitIdenticalAcrossNonlinearBackends) {
    const ParityCase& pc = GetParam();
    const nn::Sequential model = make_fss_test_model();
    const pi::CompiledModel compiled(model, fss_compile_options(pc.full_pi));
    const Tensor input = make_fss_test_input();

    pi::SessionConfig config{.backend = pc.backend};
    config.nonlinear = mpc::NonlinearBackend::kGarbledCircuit;
    const pi::PiResult gc = pi::run_private_inference(compiled, config, input);
    config.nonlinear = mpc::NonlinearBackend::kOtMillionaire;
    const pi::PiResult ot = pi::run_private_inference(compiled, config, input);
    config.nonlinear = mpc::NonlinearBackend::kFss;
    const pi::PiResult fss = pi::run_private_inference(compiled, config, input);

    ASSERT_TRUE(gc.logits.same_shape(fss.logits));
    ASSERT_TRUE(ot.logits.same_shape(fss.logits));
    for (std::int64_t i = 0; i < gc.logits.numel(); ++i) {
        EXPECT_EQ(gc.logits[i], fss.logits[i]) << "gc vs fss, logit " << i;
        EXPECT_EQ(ot.logits[i], fss.logits[i]) << "ot vs fss, logit " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrossBackendParityTest,
    ::testing::Values(ParityCase{"CheetahFullPi", pi::PiBackend::kCheetah, true},
                      ParityCase{"DelphiFullPi", pi::PiBackend::kDelphi, true},
                      ParityCase{"CheetahCryptoClear", pi::PiBackend::kCheetah, false}),
    [](const auto& info) { return info.param.name; });

/// The satellite acceptance criterion: FSS moves the nonlinear traffic
/// into the preprocessing bucket, so for the same model its ONLINE bytes
/// must be strictly below GC's, while GC ships nothing in preprocessing.
TEST(FssSession, OnlineBytesStrictlyBelowGc) {
    const nn::Sequential model = make_fss_test_model();
    const pi::CompiledModel compiled(model, fss_compile_options(/*full_pi=*/true));
    const Tensor input = make_fss_test_input();

    pi::SessionConfig config;
    config.nonlinear = mpc::NonlinearBackend::kGarbledCircuit;
    const pi::PiResult gc = pi::run_private_inference(compiled, config, input);
    config.nonlinear = mpc::NonlinearBackend::kFss;
    const pi::PiResult fss = pi::run_private_inference(compiled, config, input);

    EXPECT_EQ(gc.stats.preprocess_bytes, 0U);
    EXPECT_EQ(gc.stats.preprocess_flights, 0U);
    // The preprocessing bucket holds exactly the plan-sized key shipment
    // (no flight of its own: the KEYS frame rides the server->client
    // flight the dealer-setup message already opened).
    EXPECT_EQ(fss.stats.preprocess_bytes,
              pi::count_fss_comparisons(compiled.plan()) * ReluKeyShare::kSerializedBytes);
    EXPECT_LT(fss.stats.online_bytes, gc.stats.online_bytes)
        << "FSS online traffic must undercut GC once keys are preprocessed";
}

TEST(FssSession, MismatchedClientRaisesTypedError) {
    const nn::Sequential model = make_fss_test_model();
    const pi::CompiledModel compiled(model, fss_compile_options(/*full_pi=*/true));
    const Tensor input = make_fss_test_input();

    // Scripted fake server: send only the dealer-setup message, with the
    // trailing byte announcing kFss, then return. The real client is
    // explicitly configured for GC and must fail with the TYPED mismatch
    // error before any protocol round (a real server/client pair would
    // otherwise hang mid-protocol).
    pi::SessionConfig client_config;
    client_config.nonlinear = mpc::NonlinearBackend::kGarbledCircuit;
    const pi::ClientModel client_model(compiled.artifact(), compiled.num_threads());
    const pi::ClientSession client(client_model, client_config);

    net::DuplexChannel channel;
    EXPECT_THROW(
        (void)net::run_two_party(
            channel,
            [](net::Transport& t) {
                std::vector<std::uint8_t> setup(crypto::OtSetupPair::setup_traffic_bytes() + 1);
                setup.back() = static_cast<std::uint8_t>(mpc::NonlinearBackend::kFss);
                t.send_bytes(setup);
            },
            [&](net::Transport& t) { (void)client.run(t, input); }),
        pi::NonlinearMismatch);
}

TEST(FssSession, UnknownAnnouncedBackendRejected) {
    const nn::Sequential model = make_fss_test_model();
    const pi::CompiledModel compiled(model, fss_compile_options(/*full_pi=*/true));
    const Tensor input = make_fss_test_input();

    const pi::ClientModel client_model(compiled.artifact(), compiled.num_threads());
    const pi::ClientSession client(client_model, pi::SessionConfig{});
    net::DuplexChannel channel;
    EXPECT_THROW((void)net::run_two_party(
                     channel,
                     [](net::Transport& t) {
                         std::vector<std::uint8_t> setup(
                             crypto::OtSetupPair::setup_traffic_bytes() + 1);
                         setup.back() = 0x7F;  // no such backend
                         t.send_bytes(setup);
                     },
                     [&](net::Transport& t) { (void)client.run(t, input); }),
                 Error);
}

}  // namespace
}  // namespace c2pi::fss
