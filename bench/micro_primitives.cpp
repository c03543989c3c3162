// Microbenchmarks (google-benchmark) for the cryptographic and numeric
// substrates — not a paper artifact, but the per-primitive costs that
// explain Table II: NTT, BFV ops, the HE linear-layer server hot loops
// over the compiled PlainNtt cache, garbled-circuit ReLU, the OT
// millionaire DReLU, the DCF evaluation, key dealing and per-backend
// online ReLU of the FSS subsystem, IKNP throughput, and the float conv
// kernel.
//
// Set C2PI_BENCH_JSON=<path> to also write the results as JSON
// (google-benchmark's native format); C2PI_FAST=1 shrinks min-time and
// repeats each bench for smoke/CI runs.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "crypto/garbling.hpp"
#include "crypto/hash.hpp"
#include "crypto/ot.hpp"
#include "fss/compare.hpp"
#include "fss/key_pool.hpp"
#include "he/bfv.hpp"
#include "he/kernels.hpp"
#include "mpc/linear.hpp"
#include "mpc/nonlinear.hpp"
#include "net/runtime.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace c2pi;

void BM_NttForward(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const he::u64 p = he::next_ntt_prime(1ULL << 49, 2 * n);
    const he::NttTables tables(p, n);
    Rng rng(1);
    std::vector<he::u64> a(n);
    for (auto& v : a) v = rng.next_u64() % p;
    for (auto _ : state) {
        tables.forward(a);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NttForward)->Arg(1024)->Arg(4096);

void BM_NttInverse(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const he::u64 p = he::next_ntt_prime(1ULL << 49, 2 * n);
    const he::NttTables tables(p, n);
    Rng rng(2);
    std::vector<he::u64> a(n);
    for (auto& v : a) v = rng.next_u64() % p;
    for (auto _ : state) {
        tables.inverse(a);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NttInverse)->Arg(1024)->Arg(4096);

void BM_BfvEncrypt(benchmark::State& state) {
    const he::BfvContext ctx({.n = static_cast<std::size_t>(state.range(0)), .limbs = 4});
    crypto::ChaCha20Prg prg(crypto::Block128{1, 2});
    const auto sk = ctx.keygen(prg);
    std::vector<Ring> plain(ctx.n(), 42);
    for (auto _ : state) {
        auto ct = ctx.encrypt(plain, sk, prg);
        benchmark::DoNotOptimize(ct.c0.limbs[0].data());
    }
}
BENCHMARK(BM_BfvEncrypt)->Arg(1024)->Arg(4096);

// The client's per-response decrypt: a 2-limb ciphertext, as the HE
// linear layers ship them after the mod switch.
void BM_BfvDecrypt(benchmark::State& state) {
    const he::BfvContext ctx({.n = static_cast<std::size_t>(state.range(0)), .limbs = 4});
    crypto::ChaCha20Prg prg(crypto::Block128{1, 2});
    const auto sk = ctx.keygen(prg);
    std::vector<Ring> plain(ctx.n(), 42);
    auto ct = ctx.encrypt(plain, sk, prg);
    ctx.mod_switch_to_two_limbs(ct);
    for (auto _ : state) {
        auto m = ctx.decrypt(ct, sk);
        benchmark::DoNotOptimize(m.data());
    }
}
BENCHMARK(BM_BfvDecrypt)->Arg(4096);

void BM_BfvMultiplyPlainAccumulatePrecomputed(benchmark::State& state) {
    // The compiled path: NTT-form weights with Shoup companions, built
    // once.
    const he::BfvContext ctx({.n = static_cast<std::size_t>(state.range(0)), .limbs = 4});
    crypto::ChaCha20Prg prg(crypto::Block128{3, 4});
    const auto sk = ctx.keygen(prg);
    std::vector<Ring> plain(ctx.n(), 7), weight(ctx.n(), 3);
    auto ct = ctx.encrypt(plain, sk, prg);
    ctx.to_ntt(ct);
    const he::PlainNtt w = ctx.to_plain_ntt(weight);
    he::Ciphertext acc;
    ctx.multiply_plain(ct, w, acc);
    for (auto _ : state) {
        ctx.multiply_plain_accumulate(ct, w, acc);
        benchmark::DoNotOptimize(acc.c0.limbs[0].data());
    }
}
BENCHMARK(BM_BfvMultiplyPlainAccumulatePrecomputed)->Arg(4096);

/// The client's side of a linear layer up to the wire: its input packed
/// at the layout's slots, encrypted, and NTT'd the way the server holds
/// it after receiving.
std::vector<he::Ciphertext> encrypt_layout_inputs(const he::BfvContext& ctx,
                                                  const he::LinearLayout& layout,
                                                  std::span<const Ring> x, const he::SecretKey& sk,
                                                  crypto::ChaCha20Prg& prg) {
    const std::vector<Ring> polys = layout.pack_inputs(x, ctx.n());
    std::vector<he::Ciphertext> cts;
    for (std::int64_t g = 0; g < layout.inputs; ++g) {
        he::Ciphertext ct = ctx.encrypt(
            std::span(polys).subspan(static_cast<std::size_t>(g) * ctx.n(), ctx.n()), sk, prg);
        ctx.to_ntt(ct);
        cts.push_back(std::move(ct));
    }
    return cts;
}

/// Fold response r's masks into its output coefficients.
void add_response_masks(const he::BfvContext& ctx, const he::LinearLayout& layout,
                        std::int64_t r, std::span<const Ring> masks, he::Ciphertext& acc) {
    const auto [begin, end] = layout.response_range(r);
    ctx.add_plain_at(acc, std::span(layout.output_coeff).subspan(begin, end - begin),
                     masks.subspan(begin, end - begin));
}

/// The server-side online hot loop of the HE conv protocol, per request:
/// everything between "input ciphertexts are in NTT form" and "responses
/// ready to ship", over the compiled PlainNtt cache. The per-request
/// input receive/to_ntt is excluded: it is amortized over all output
/// channels. One thread, no pool: a pool over every vCPU times the
/// host's scheduling (a shared VM read 28-62 ms against 3.9 ms), and the
/// pool's limb split is covered by parity_test.
void BM_HeConvServerOnline(benchmark::State& state) {
    const he::BfvContext ctx({.n = 4096, .limbs = 4, .noise_bound = 4});
    const he::ConvGeometry geo{.in_channels = 64,
                               .height = 16,
                               .width = 16,
                               .out_channels = 8,
                               .kernel = 3,
                               .stride = 1,
                               .pad = 1};
    Rng rng(21);
    const FixedPointFormat fmt{.frac_bits = 16};
    std::vector<Ring> w(static_cast<std::size_t>(geo.out_channels * geo.in_channels * geo.kernel *
                                                 geo.kernel));
    for (auto& v : w) v = fmt.encode(rng.uniform(-1.0F, 1.0F));
    std::vector<Ring> x(static_cast<std::size_t>(geo.in_channels * geo.height * geo.width));
    for (auto& v : x) v = fmt.encode(rng.uniform(-1.0F, 1.0F));

    const mpc::ConvLayerCache cache(ctx, geo, w, {});
    const he::LinearLayout& layout = cache.layout();
    crypto::ChaCha20Prg prg(crypto::Block128{5, 6});
    const auto sk = ctx.keygen(prg);
    const std::vector<he::Ciphertext> input_cts = encrypt_layout_inputs(ctx, layout, x, sk, prg);
    std::vector<Ring> mask(layout.output_coeff.size());
    for (auto& v : mask) v = rng.next_u64();

    for (auto _ : state) {
        for (std::int64_t o = 0; o < layout.responses(); ++o) {
            he::Ciphertext acc;
            const auto w_ntt = [&](std::int64_t g) -> const he::PlainNtt& {
                return cache.w_ntt[static_cast<std::size_t>(o * layout.inputs + g)];
            };
            ctx.multiply_plain(input_cts[0], w_ntt(0), acc);
            for (std::int64_t g = 1; g < layout.inputs; ++g)
                ctx.multiply_plain_accumulate(input_cts[static_cast<std::size_t>(g)], w_ntt(g),
                                              acc);
            ctx.from_ntt(acc);
            add_response_masks(ctx, layout, o, mask, acc);
            ctx.mod_switch_to_two_limbs(acc);
            benchmark::DoNotOptimize(acc.c0.limbs[0].data());
        }
    }
    state.counters["out_channels"] = static_cast<double>(geo.out_channels);
    state.counters["groups"] = static_cast<double>(layout.inputs);
}
// Registered as /1, the name its committed baseline entry carries.
BENCHMARK(BM_HeConvServerOnline)->Arg(1)->Unit(benchmark::kMillisecond);

/// Fully-connected counterpart: per-block weight multiply + response
/// finalize (the input ciphertext is NTT'd once per request, outside).
/// One thread, as BM_HeConvServerOnline.
void BM_HeMatvecServerOnline(benchmark::State& state) {
    const he::BfvContext ctx({.n = 4096, .limbs = 4, .noise_bound = 4});
    const std::int64_t in = 1024, out = 8;
    Rng rng(22);
    const FixedPointFormat fmt{.frac_bits = 16};
    std::vector<Ring> w(static_cast<std::size_t>(in * out));
    for (auto& v : w) v = fmt.encode(rng.uniform(-1.0F, 1.0F));
    std::vector<Ring> x(static_cast<std::size_t>(in));
    for (auto& v : x) v = fmt.encode(rng.uniform(-1.0F, 1.0F));

    const mpc::MatVecLayerCache cache(ctx, in, out, w, {});
    const he::LinearLayout& layout = cache.layout();
    crypto::ChaCha20Prg prg(crypto::Block128{7, 8});
    const auto sk = ctx.keygen(prg);
    const std::vector<he::Ciphertext> input_cts = encrypt_layout_inputs(ctx, layout, x, sk, prg);
    std::vector<Ring> mask(layout.output_coeff.size());
    for (auto& v : mask) v = rng.next_u64();

    for (auto _ : state) {
        for (std::int64_t b = 0; b < layout.responses(); ++b) {
            he::Ciphertext acc;
            ctx.multiply_plain(input_cts[0], cache.w_ntt[static_cast<std::size_t>(b)], acc);
            ctx.from_ntt(acc);
            add_response_masks(ctx, layout, b, mask, acc);
            ctx.mod_switch_to_two_limbs(acc);
            benchmark::DoNotOptimize(acc.c0.limbs[0].data());
        }
    }
    state.counters["blocks"] = static_cast<double>(layout.responses());
}
// Registered as /1, the name its committed baseline entry carries.
BENCHMARK(BM_HeMatvecServerOnline)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_GarbleReluCircuit(benchmark::State& state) {
    const crypto::Circuit circuit = crypto::build_relu_circuit(64);
    crypto::ChaCha20Prg prg(crypto::Block128{5, 6});
    for (auto _ : state) {
        auto g = crypto::garble(circuit, prg);
        benchmark::DoNotOptimize(g.tables.data());
    }
    state.counters["and_gates"] = static_cast<double>(circuit.and_count());
}
BENCHMARK(BM_GarbleReluCircuit);

void BM_EvaluateGarbledRelu(benchmark::State& state) {
    const crypto::Circuit circuit = crypto::build_relu_circuit(64);
    crypto::ChaCha20Prg prg(crypto::Block128{7, 8});
    const auto g = crypto::garble(circuit, prg);
    std::vector<crypto::Block128> ga, ea;
    for (std::int64_t i = 0; i < circuit.num_garbler_inputs; ++i)
        ga.push_back(g.garbler_label(static_cast<std::size_t>(i), i % 2 == 0));
    for (std::int64_t i = 0; i < circuit.num_evaluator_inputs; ++i)
        ea.push_back(g.evaluator_label(static_cast<std::size_t>(i), i % 3 == 0));
    for (auto _ : state) {
        auto bits = crypto::evaluate_garbled(circuit, g.tables, ga, ea, g.output_decode);
        benchmark::DoNotOptimize(bits.data());
    }
}
BENCHMARK(BM_EvaluateGarbledRelu);

void BM_SecureReluBatch(benchmark::State& state) {
    // End-to-end batched secure ReLU over the in-process channel: the
    // number that directly drives the Table II non-linear cost.
    const auto backend = state.range(0) == 0 ? mpc::NonlinearBackend::kGarbledCircuit
                                             : mpc::NonlinearBackend::kOtMillionaire;
    const std::size_t n = 1024;
    const FixedPointFormat fmt{.frac_bits = 16};
    const he::BfvContext bfv({.n = 256, .limbs = 4});
    Rng rng(9);
    std::vector<Ring> v0(n), v1(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Ring val = fmt.encode(rng.uniform(-2.0F, 2.0F));
        v0[i] = rng.next_u64();
        v1[i] = val - v0[i];
    }
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        net::DuplexChannel channel;
        net::run_two_party(
            channel,
            [&](net::Transport& t) {
                mpc::PartyContext ctx(t, fmt, bfv, crypto::Block128{1, 1});
                benchmark::DoNotOptimize(mpc::secure_relu(ctx, v0, backend));
            },
            [&](net::Transport& t) {
                mpc::PartyContext ctx(t, fmt, bfv, crypto::Block128{1, 1});
                benchmark::DoNotOptimize(mpc::secure_relu(ctx, v1, backend));
            });
        bytes = channel.stats().total_bytes();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.counters["bytes_per_relu"] = static_cast<double>(bytes) / static_cast<double>(n);
}
// Arg 0 = garbled-circuit backend (Delphi), arg 1 = OT millionaire (Cheetah).
BENCHMARK(BM_SecureReluBatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_DcfEval(benchmark::State& state) {
    // One local DCF evaluation (depth-64 GGM walk): the per-element
    // online compute of the kFss backend, with no transport involved.
    crypto::ChaCha20Prg prg(crypto::Block128{21, 22});
    const auto keys = fss::dcf_gen(prg.next_u64(), fss::DcfPayload{1, prg.next_u64()}, prg);
    Ring x = prg.next_u64();
    for (auto _ : state) {
        benchmark::DoNotOptimize(fss::dcf_eval(keys.k0, 0, x));
        x += 0x9E3779B97F4A7C15ULL;  // cover the domain, defeat caching
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DcfEval);

/// n DCFs with random points, payloads and root seeds (the dealer's draws).
std::vector<fss::DcfGenInput> random_dcf_inputs(std::size_t n, crypto::ChaCha20Prg& prg) {
    std::vector<fss::DcfGenInput> in(n);
    for (auto& d : in) {
        d.alpha = prg.next_u64();
        d.beta = {1, prg.next_u64()};
        d.root0 = prg.next_block();
        d.root1 = prg.next_block();
    }
    return in;
}

void BM_DcfGenBatch(benchmark::State& state) {
    // Dealer-side generation of n key pairs through the tiled
    // level-synchronous walk; items = DCFs.
    const auto n = static_cast<std::size_t>(state.range(0));
    crypto::ChaCha20Prg prg(crypto::Block128{25, 26});
    const auto in = random_dcf_inputs(n, prg);
    std::vector<fss::DcfKey> k0(n), k1(n);
    std::vector<fss::DcfKey*> out0(n), out1(n);
    for (std::size_t i = 0; i < n; ++i) {
        out0[i] = &k0[i];
        out1[i] = &k1[i];
    }
    for (auto _ : state) {
        fss::dcf_gen_batch(in, out0, out1);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DcfGenBatch)->Arg(1024);

void BM_DcfEvalBatch(benchmark::State& state) {
    // One party's evaluation of n DCFs as one tiled batch, the way a
    // kFss layer evaluates; items = DCFs, so the per-item time compares
    // directly with BM_DcfEval's single-key walk.
    const auto n = static_cast<std::size_t>(state.range(0));
    crypto::ChaCha20Prg prg(crypto::Block128{27, 28});
    const auto in = random_dcf_inputs(n, prg);
    std::vector<fss::DcfKey> k0(n), k1(n);
    std::vector<fss::DcfKey*> out0(n), out1(n);
    for (std::size_t i = 0; i < n; ++i) {
        out0[i] = &k0[i];
        out1[i] = &k1[i];
    }
    fss::dcf_gen_batch(in, out0, out1);
    const std::vector<const fss::DcfKey*> keys(out0.begin(), out0.end());
    std::vector<Ring> xs(n);
    for (auto& x : xs) x = prg.next_u64();
    std::vector<fss::DcfPayload> out(n);
    for (auto _ : state) {
        fss::dcf_eval_batch(keys, 0, xs, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DcfEvalBatch)->Arg(1024);

void BM_FssDealBatch(benchmark::State& state) {
    // The dealer's whole preprocessing step for n comparisons, serially:
    // draw, deal, encode the client halves into one KEYS frame and pool
    // the server halves, while the peer drains the frame over an
    // in-process channel; items = comparisons.
    const auto n = static_cast<std::size_t>(state.range(0));
    crypto::ChaCha20Prg prg(crypto::Block128{29, 30});
    for (auto _ : state) {
        net::DuplexChannel channel;
        net::run_two_party(
            channel,
            [&](net::Transport& t) {
                fss::KeyPool pool;
                fss::dealer_replenish(t, prg, pool, n);
            },
            [](net::Transport& t) { benchmark::DoNotOptimize(t.recv_keys_bytes()); });
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FssDealBatch)->Arg(1024)->Unit(benchmark::kMillisecond);

/// Online-phase cost of one batched secure ReLU per backend. For kFss
/// the DCF key material is generated ONCE outside the timed region and
/// pushed into both parties' pools each iteration (a deployment ships it
/// in the preprocessing phase), so the measurement isolates the online
/// round; GC has no preprocessing, so its online time includes garbling,
/// exactly as deployed.
void bench_relu_online(benchmark::State& state, mpc::NonlinearBackend backend) {
    const std::size_t n = 1024;
    const FixedPointFormat fmt{.frac_bits = 16};
    const he::BfvContext bfv({.n = 256, .limbs = 4});
    Rng rng(13);
    std::vector<Ring> v0(n), v1(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Ring val = fmt.encode(rng.uniform(-2.0F, 2.0F));
        v0[i] = rng.next_u64();
        v1[i] = val - v0[i];
    }
    fss::KeyBatch server_keys, client_keys;
    if (backend == mpc::NonlinearBackend::kFss) {
        crypto::ChaCha20Prg dealer(crypto::Block128{23, 24});
        for (std::size_t i = 0; i < n; ++i) {
            auto pair = fss::gen_relu_material(dealer);
            server_keys.push_back(std::move(pair.server));
            client_keys.push_back(std::move(pair.client));
        }
    }
    std::uint64_t online_bytes = 0;
    for (auto _ : state) {
        net::DuplexChannel channel;
        net::run_two_party(
            channel,
            [&](net::Transport& t) {
                mpc::PartyContext ctx(t, fmt, bfv, crypto::Block128{1, 1});
                if (!server_keys.empty()) ctx.fss_pool().push(server_keys);
                benchmark::DoNotOptimize(mpc::secure_relu(ctx, v0, backend));
            },
            [&](net::Transport& t) {
                mpc::PartyContext ctx(t, fmt, bfv, crypto::Block128{1, 1});
                if (!client_keys.empty()) ctx.fss_pool().push(client_keys);
                benchmark::DoNotOptimize(mpc::secure_relu(ctx, v1, backend));
            });
        online_bytes = channel.stats().phase_bytes(net::Phase::kOnline);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.counters["online_bytes_per_relu"] =
        static_cast<double>(online_bytes) / static_cast<double>(n);
}

void BM_ReluOnlineGc(benchmark::State& state) {
    bench_relu_online(state, mpc::NonlinearBackend::kGarbledCircuit);
}
BENCHMARK(BM_ReluOnlineGc)->Unit(benchmark::kMillisecond);

void BM_ReluOnlineFss(benchmark::State& state) {
    bench_relu_online(state, mpc::NonlinearBackend::kFss);
}
BENCHMARK(BM_ReluOnlineFss)->Unit(benchmark::kMillisecond);

// n full 128-bit random OTs: outputs are hashed when read, so every
// output of every OT is read, through the batched range accessors.
void BM_IknpRandomOt(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto setup = crypto::dealer_base_ots(crypto::Block128{2, 3});
    crypto::ChaCha20Prg prg(crypto::Block128{4, 5});
    const auto choices = prg.next_bits(n);
    for (auto _ : state) {
        net::DuplexChannel channel;
        net::run_two_party(
            channel,
            [&](net::Transport& t) {
                crypto::IknpSender ext(setup.sender);
                const auto rot = ext.extend(t, n);
                rot.for_each_chunk<crypto::Block128>([](std::size_t, auto m0, auto m1) {
                    benchmark::DoNotOptimize(m0.data());
                    benchmark::DoNotOptimize(m1.data());
                });
            },
            [&](net::Transport& t) {
                crypto::IknpReceiver ext(setup.receiver);
                const auto rot = ext.extend(t, choices);
                rot.for_each_chunk<crypto::Block128>(
                    [](std::size_t, auto m) { benchmark::DoNotOptimize(m.data()); });
            });
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IknpRandomOt)->Arg(4096)->Arg(65536)->Unit(benchmark::kMillisecond);

void BM_Conv2dFloat(benchmark::State& state) {
    Rng rng(11);
    const Tensor x = Tensor::randn({1, 16, 32, 32}, rng);
    const Tensor w = Tensor::randn({16, 16, 3, 3}, rng);
    const Tensor b = Tensor::randn({16}, rng);
    const ops::ConvSpec spec{.kernel = 3, .stride = 1, .pad = 1};
    for (auto _ : state) {
        auto y = ops::conv2d(x, w, b, spec);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_Conv2dFloat);

void BM_Sha256(benchmark::State& state) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
    for (auto _ : state) {
        auto d = crypto::Sha256::digest(data);
        benchmark::DoNotOptimize(d.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

void BM_CrHash(benchmark::State& state) {
    crypto::Block128 x{123, 456};
    std::uint64_t tweak = 0;
    for (auto _ : state) {
        x = crypto::cr_hash(tweak++, x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_CrHash);

// One batched kernel call over n inputs at consecutive tweaks, the shape
// of a random-OT chunk: time per call, so per hash it is time / n.
void BM_CrHashBatch(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    crypto::ChaCha20Prg prg(crypto::Block128{7, 8});
    std::vector<crypto::Block128> x(n), out(n);
    for (auto& b : x) b = prg.next_block();
    std::uint64_t tweak = 0;
    for (auto _ : state) {
        crypto::cr_hash_batch(x, tweak, 1, crypto::Block128{}, std::span<crypto::Block128>(out));
        tweak += n;
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CrHashBatch)->Arg(1024);

}  // namespace

// Custom main instead of BENCHMARK_MAIN: environment-driven knobs so the
// CI perf-trajectory step needs no argument plumbing.
//  * C2PI_BENCH_JSON=<path> — also write results as JSON to <path>;
//  * C2PI_FAST=1            — cut per-benchmark min time for smoke runs,
//                             repeat each bench kFastRepetitions times
//                             (scripts/bench_diff.py gates on the median;
//                             the flag, unlike Repetitions(), keeps the
//                             names the baseline uses).
int main(int argc, char** argv) {
    std::vector<char*> args(argv, argv + argc);
    constexpr int kFastRepetitions = 5;
    std::string out_flag, fmt_flag, fast_flag, reps_flag;
    if (const char* path = std::getenv("C2PI_BENCH_JSON"); path != nullptr && path[0] != '\0') {
        out_flag = std::string("--benchmark_out=") + path;
        fmt_flag = "--benchmark_out_format=json";
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    const char* fast = std::getenv("C2PI_FAST");
    const bool fast_mode = fast != nullptr && fast[0] == '1';
    if (fast_mode) {
        fast_flag = "--benchmark_min_time=0.01";
        reps_flag = "--benchmark_repetitions=" + std::to_string(kFastRepetitions);
        args.push_back(fast_flag.data());
        args.push_back(reps_flag.data());
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    // What a baseline was measured on beyond google-benchmark's own
    // context: scripts/bench_diff.py warns when these differ.
    benchmark::AddCustomContext("he_kernels", c2pi::he::kernels::active().name);
    benchmark::AddCustomContext("num_threads",
                              std::to_string(c2pi::core::resolve_thread_count(0)));
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
