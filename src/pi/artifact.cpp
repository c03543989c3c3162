#include "pi/artifact.hpp"

#include <cstring>

namespace c2pi::pi {

namespace {

// ---------------------------------------------------------------- codec ---
// Layout (all integers little-endian; normative spec: docs/PROTOCOL.md §3):
//
//   magic   4B  'C' '2' 'M' 'A'
//   version u16 2
//   length  u32 total byte count of the whole artifact, header included
//   body        fields in declaration order; shapes as u8 rank + i64 dims,
//               the plan as u32 count + fixed-layout entries, each
//               ending with its input0/input1 edge indices
//
// Every entry writes ALL LayerPlan fields (unused ones hold their
// defaults), so decode(encode(a)) == a field-for-field and re-encoding is
// byte-stable.

constexpr std::uint8_t kArtifactMagic[4] = {'C', '2', 'M', 'A'};
/// The one codec version: every plan entry carries its input0/input1
/// edge indices, so DAG plans (residual adds, global-avgpool heads) ship.
/// Decoders reject every other version.
constexpr std::uint16_t kArtifactVersion = 2;
/// Hostile-input bounds: far above anything the model zoo produces, far
/// below anything that could amplify into a giant allocation or overflow
/// the derived-geometry arithmetic (out_h/out_w, shape_numel).
constexpr std::size_t kMaxPlanEntries = 4096;
constexpr std::size_t kMaxShapeRank = 8;
constexpr std::int64_t kMaxDim = 1 << 20;          ///< per-dimension cap
/// Per-shape element cap. 16M elements is ~8× the largest activation a
/// VGG-scale model produces, while a shape at the cap costs the client
/// at most ~128 MiB of Ring values — survivable, unlike the multi-GiB
/// tensors an unbounded (or 2^32) cap would let a hostile server demand.
constexpr std::int64_t kMaxShapeNumel = 1LL << 24;
constexpr std::size_t kMaxRingDegree = 1 << 16;

/// Every dimension positive and the element count bounded: a hostile
/// artifact must die with a typed error here, not as an OOM (or signed
/// overflow) while a ClientModel builds tensors from it. The per-dim
/// bound is the element cap, not kMaxDim — a Flatten inside the crypto
/// prefix legitimately produces one dimension as large as the whole
/// activation (the cumulative numel check does the real bounding; the
/// pre-multiply dim bound only keeps the product from overflowing).
void check_shape(const Shape& s, const char* what) {
    std::int64_t numel = 1;
    for (const auto d : s) {
        require(d > 0 && d <= kMaxShapeNumel, what);
        numel *= d;  // bounded: both factors <= kMaxShapeNumel, well below 2^63
        require(numel <= kMaxShapeNumel, what);
    }
}

struct Writer {
    std::vector<std::uint8_t> bytes;

    void u8(std::uint8_t v) { bytes.push_back(v); }
    void u16(std::uint16_t v) {
        for (int i = 0; i < 2; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void shape(const Shape& s) {
        require(s.size() <= kMaxShapeRank, "artifact shape rank too large to serialize");
        u8(static_cast<std::uint8_t>(s.size()));
        for (const auto d : s) i64(d);
    }
};

/// Bounds-checked little-endian reader; every overrun is the same typed
/// truncation error, whichever field tripped it.
struct Reader {
    std::span<const std::uint8_t> bytes;
    std::size_t pos = 0;

    [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }
    void need(std::size_t n) const {
        require(remaining() >= n, "model artifact: truncated payload");
    }
    std::uint8_t u8() {
        need(1);
        return bytes[pos++];
    }
    std::uint16_t u16() {
        need(2);
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(bytes[pos++]) << (8 * i);
        return v;
    }
    std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * i);
        return v;
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * i);
        return v;
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    Shape shape() {
        const std::size_t rank = u8();
        require(rank <= kMaxShapeRank, "model artifact: shape rank out of range");
        Shape s(rank);
        for (auto& d : s) d = i64();
        return s;
    }
};

void write_plan_entry(Writer& w, const LayerPlan& p) {
    w.u8(static_cast<std::uint8_t>(p.op));
    w.i64(p.geo.in_channels);
    w.i64(p.geo.height);
    w.i64(p.geo.width);
    w.i64(p.geo.out_channels);
    w.i64(p.geo.kernel);
    w.i64(p.geo.stride);
    w.i64(p.geo.pad);
    w.i64(p.in_features);
    w.i64(p.out_features);
    w.i64(p.pool_kernel);
    w.i64(p.pool_stride);
    w.shape(p.in_shape);
    w.shape(p.out_shape);
    w.i64(p.input0);
    w.i64(p.input1);
}

LayerPlan read_plan_entry(Reader& r) {
    LayerPlan p;
    const std::uint8_t op = r.u8();
    require(op <= static_cast<std::uint8_t>(PlanOp::kResidualAdd),
            "model artifact: unknown plan op");
    p.op = static_cast<PlanOp>(op);
    p.geo.in_channels = r.i64();
    p.geo.height = r.i64();
    p.geo.width = r.i64();
    p.geo.out_channels = r.i64();
    p.geo.kernel = r.i64();
    p.geo.stride = r.i64();
    p.geo.pad = r.i64();
    p.in_features = r.i64();
    p.out_features = r.i64();
    p.pool_kernel = r.i64();
    p.pool_stride = r.i64();
    p.in_shape = r.shape();
    p.out_shape = r.shape();
    p.input0 = r.i64();
    p.input1 = r.i64();
    return p;
}

}  // namespace

ModelArtifact ModelArtifact::build(const nn::Graph& model, const Options& options) {
    require(options.input_chw.size() == 3, "ModelArtifact expects a [C,H,W] input shape");
    for (const auto d : options.input_chw)
        require(d > 0, "ModelArtifact input dimensions must be positive");
    require(options.fmt.frac_bits > 0 && options.fmt.frac_bits < 30,
            "frac_bits must lie in (0, 30): too few bits loses all precision, too many "
            "overflow the truncation headroom");
    require(options.he_ring_degree > 0 &&
                (options.he_ring_degree & (options.he_ring_degree - 1)) == 0,
            "he_ring_degree must be a power of two");
    require(model.num_linear_ops() > 0, "model has no linear ops to compile");
    if (options.boundary.has_value()) {
        require(options.boundary->linear_index >= 1, "boundary linear_index must be >= 1");
        require(options.boundary->linear_index <= model.num_linear_ops(),
                "boundary lies past the last linear op of the model");
        // Let flat_cut_index validate the ".5" position (ReLU must follow).
        (void)model.flat_cut_index(*options.boundary);
    }

    ModelArtifact a;
    a.input_chw = options.input_chw;
    a.fmt = options.fmt;
    a.he_ring_degree = options.he_ring_degree;
    a.num_linear_ops = model.num_linear_ops();
    a.cut = options.boundary.value_or(
        nn::CutPoint{.linear_index = model.num_linear_ops(), .after_relu = false});
    const std::size_t crypto_end = model.flat_cut_index(a.cut) + 1;
    // A skip edge crossing the cut would make the boundary activation
    // ill-defined: the clear tail would need a value the crypto prefix
    // never revealed. Only articulation points are valid boundaries.
    require(model.is_articulation(crypto_end - 1),
            "boundary is not an articulation point: a skip connection crosses the cut");
    a.full_pi = crypto_end >= model.size() || a.cut.linear_index == a.num_linear_ops;
    a.plan = plan_layers(model, a.input_chw, crypto_end);
    // The server must never compile-and-serve an artifact that every
    // wire client is required to reject: the structural bounds clients
    // enforce at deserialize() time apply at build() time too, failing
    // the deployment on the model owner's side where it can be fixed.
    a.validate();
    return a;
}

void ModelArtifact::validate() const {
    require(input_chw.size() == 3, "model artifact: input shape must be [C,H,W]");
    check_shape(input_chw, "model artifact: input dimensions out of range");
    require(fmt.frac_bits > 0 && fmt.frac_bits < 30,
            "model artifact: frac_bits out of range");
    require(he_ring_degree >= 8 && he_ring_degree <= kMaxRingDegree &&
                (he_ring_degree & (he_ring_degree - 1)) == 0,
            "model artifact: he_ring_degree must be a power of two in [8, 65536]");
    // The reference BFV parameter set: the mod-switch path is specialised
    // to a four-limb fresh modulus, so anything else is not an artifact
    // this implementation could have produced.
    require(he_limbs == 4, "model artifact: unsupported BFV limb count");
    require(he_noise_bound > 0 && he_noise_bound <= 64,
            "model artifact: BFV noise bound out of range");
    require(!plan.empty() && plan.size() <= kMaxPlanEntries,
            "model artifact: plan size out of range");
    require(cut.linear_index >= 1, "model artifact: boundary before the first linear op");
    require(num_linear_ops >= cut.linear_index && num_linear_ops <= kMaxDim,
            "model artifact: boundary past the model's linear ops");
    // full_pi is derivable, not free: the plan holds every linear op up
    // to the cut, so "no clear tail" holds exactly when the cut is the
    // model's last linear op. A flipped flag would desync the reveal
    // direction of the final protocol step — reject it here.
    require(full_pi == (cut.linear_index == num_linear_ops),
            "model artifact: full_pi flag disagrees with the boundary");

    // The plan must be a consistent shape DAG rooted at the input, with
    // exactly cut.linear_index linear ops, ending as the paper's cut
    // convention demands (a linear op, or its ReLU for a ".5" boundary).
    // Edge indices are hostile input like everything else: they must
    // point strictly backward (a dangling or forward edge would index
    // activations that do not exist at execution time).
    std::int64_t linear_ops = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const LayerPlan& p = plan[i];
        require(p.input0 >= -1 && p.input0 < static_cast<std::int64_t>(i),
                "model artifact: dangling plan edge index");
        if (p.op == PlanOp::kResidualAdd) {
            require(p.input1 >= 0 && p.input1 < static_cast<std::int64_t>(i),
                    "model artifact: dangling plan edge index");
        } else {
            require(p.input1 == -1,
                    "model artifact: second input edge on a non-add plan entry");
        }
        const Shape& expect_in = p.input0 < 0
                                     ? input_chw
                                     : plan[static_cast<std::size_t>(p.input0)].out_shape;
        require(p.in_shape == expect_in, "model artifact: plan shape chain broken");
        check_shape(p.out_shape, "model artifact: plan shape out of range");
        switch (p.op) {
            case PlanOp::kConv: {
                ++linear_ops;
                const he::ConvGeometry& g = p.geo;
                // Bound every field BEFORE deriving out_h/out_w from it:
                // unbounded i64s would overflow padded_h() first.
                require(g.kernel > 0 && g.kernel <= kMaxDim && g.stride > 0 &&
                            g.stride <= kMaxDim && g.pad >= 0 && g.pad <= kMaxDim &&
                            g.out_channels > 0 && g.out_channels <= kMaxDim,
                        "model artifact: bad conv geometry");
                require(p.in_shape == Shape{g.in_channels, g.height, g.width},
                        "model artifact: conv geometry disagrees with plan shapes");
                require(g.kernel <= g.padded_h() && g.kernel <= g.padded_w(),
                        "model artifact: conv kernel larger than the padded input");
                require(p.out_shape == Shape{g.out_channels, g.out_h(), g.out_w()},
                        "model artifact: conv output shape disagrees with geometry");
                break;
            }
            case PlanOp::kLinear:
                ++linear_ops;
                require(p.in_features > 0 && p.out_features > 0,
                        "model artifact: bad linear dimensions");
                require(p.in_shape == Shape{p.in_features} &&
                            p.out_shape == Shape{p.out_features},
                        "model artifact: linear dimensions disagree with plan shapes");
                break;
            case PlanOp::kMaxPool:
            case PlanOp::kAvgPool:
                require(p.pool_kernel > 0 && p.pool_kernel <= kMaxDim &&
                            p.pool_stride > 0 && p.pool_stride <= kMaxDim,
                        "model artifact: bad pooling parameters");
                // The pooling kernels index the input through these
                // shapes; an inflated out_shape would walk off the
                // activation buffer.
                require(p.in_shape.size() == 3 && p.pool_kernel <= p.in_shape[1] &&
                            p.pool_kernel <= p.in_shape[2],
                        "model artifact: pooling kernel larger than its input");
                // Silent flooring is rejected everywhere: a window that
                // does not tile would desync the plan from the plaintext
                // reference computation.
                require((p.in_shape[1] - p.pool_kernel) % p.pool_stride == 0 &&
                            (p.in_shape[2] - p.pool_kernel) % p.pool_stride == 0,
                        "model artifact: pooling geometry does not tile its input");
                require(p.out_shape ==
                            Shape{p.in_shape[0],
                                  (p.in_shape[1] - p.pool_kernel) / p.pool_stride + 1,
                                  (p.in_shape[2] - p.pool_kernel) / p.pool_stride + 1},
                        "model artifact: pooling output disagrees with its parameters");
                break;
            case PlanOp::kGlobalAvgPool:
                require(p.in_shape.size() == 3 && p.out_shape == Shape{p.in_shape[0]},
                        "model artifact: global-avgpool output disagrees with its input");
                break;
            case PlanOp::kResidualAdd: {
                require(p.in_shape == p.out_shape,
                        "model artifact: shape-changing residual add");
                const Shape& other = p.input1 < 0
                                         ? input_chw
                                         : plan[static_cast<std::size_t>(p.input1)].out_shape;
                require(other == p.out_shape,
                        "model artifact: residual add operand shapes disagree");
                break;
            }
            case PlanOp::kRelu:
                require(p.in_shape == p.out_shape, "model artifact: shape-changing ReLU");
                break;
            case PlanOp::kFlatten:
                require(p.out_shape == Shape{shape_numel(p.in_shape)},
                        "model artifact: flatten output disagrees with its input");
                break;
        }
    }
    require(linear_ops == cut.linear_index,
            "model artifact: plan linear-op count disagrees with the boundary");
    const PlanOp last = plan.back().op;
    require(cut.after_relu ? last == PlanOp::kRelu
                           : (last == PlanOp::kConv || last == PlanOp::kLinear),
            "model artifact: plan does not end at the boundary operation");
}

std::vector<std::uint8_t> ModelArtifact::serialize() const {
    Writer w;
    w.bytes.insert(w.bytes.end(), kArtifactMagic, kArtifactMagic + 4);
    w.u16(kArtifactVersion);
    w.u32(0);  // total length, patched below
    w.shape(input_chw);
    w.i64(cut.linear_index);
    w.u8(cut.after_relu ? 1 : 0);
    w.u8(full_pi ? 1 : 0);
    w.i64(num_linear_ops);
    w.u32(static_cast<std::uint32_t>(fmt.frac_bits));
    w.u64(he_ring_degree);
    w.u32(static_cast<std::uint32_t>(he_limbs));
    w.u32(static_cast<std::uint32_t>(he_noise_bound));
    w.u32(static_cast<std::uint32_t>(plan.size()));
    for (const LayerPlan& p : plan) write_plan_entry(w, p);
    const std::uint32_t total = static_cast<std::uint32_t>(w.bytes.size());
    for (int i = 0; i < 4; ++i)
        w.bytes[6 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(total >> (8 * i));
    return w.bytes;
}

ModelArtifact ModelArtifact::deserialize(std::span<const std::uint8_t> bytes) {
    Reader r{bytes};
    r.need(4);
    require(std::memcmp(bytes.data(), kArtifactMagic, 4) == 0,
            "model artifact: bad magic (not a C2PI model artifact)");
    r.pos = 4;
    require(r.u16() == kArtifactVersion, "model artifact: unsupported codec version");
    const std::uint32_t total = r.u32();
    require(total == bytes.size(),
            total > bytes.size() ? "model artifact: truncated payload"
                                 : "model artifact: trailing bytes after payload");

    ModelArtifact a;
    a.input_chw = r.shape();
    a.cut.linear_index = r.i64();
    a.cut.after_relu = r.u8() != 0;
    a.full_pi = r.u8() != 0;
    a.num_linear_ops = r.i64();
    a.fmt.frac_bits = static_cast<int>(r.u32());
    a.he_ring_degree = r.u64();
    a.he_limbs = static_cast<int>(r.u32());
    a.he_noise_bound = static_cast<int>(r.u32());
    const std::uint32_t entries = r.u32();
    require(entries > 0 && entries <= kMaxPlanEntries,
            "model artifact: plan size out of range");
    a.plan.reserve(entries);
    for (std::uint32_t i = 0; i < entries; ++i) a.plan.push_back(read_plan_entry(r));
    require(r.remaining() == 0, "model artifact: trailing bytes after payload");
    a.validate();
    return a;
}

// ---------------------------------------------------------- ClientModel ---

ClientModel::ClientModel(ModelArtifact artifact, int num_threads)
    : artifact_((artifact.validate(), std::move(artifact))),
      pool_(core::make_serving_pool(num_threads)),
      bfv_(artifact_.bfv_params(pool_.get())),
      caches_(precompute_layer_caches(artifact_.plan, {}, bfv_)) {}

int ClientModel::num_threads() const { return pool_ == nullptr ? 1 : pool_->num_threads(); }

}  // namespace c2pi::pi
