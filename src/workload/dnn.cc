#include "workload/dnn.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dramless
{
namespace workload
{

namespace
{

/** Bytes per modeled activation/weight element (64-bit slots, the
 *  same granularity the graph engine uses for CSR entries). */
constexpr std::uint64_t kSlot = 8;

/** @return access words covering @p elems contiguous elements. */
std::uint64_t
wordsFor(std::uint64_t elems, std::uint32_t unit)
{
    return (elems * kSlot + unit - 1) / unit;
}

std::uint32_t
scaleDim(std::uint32_t v, double factor)
{
    return std::max<std::uint32_t>(
        1, std::uint32_t(double(v) * factor + 0.5));
}

} // anonymous namespace

// ------------------------------ layers -----------------------------

const char *
dnnLayerTypeName(DnnLayerType t)
{
    switch (t) {
      case DnnLayerType::conv2d:
        return "conv2d";
      case DnnLayerType::fc:
        return "fc";
      case DnnLayerType::pool:
        return "pool";
    }
    return "?";
}

std::uint32_t
DnnLayerDesc::outHeight() const
{
    std::uint32_t span = inHeight + 2 * padH;
    fatal_if(span < kernelH, "%s kernel height %u exceeds padded "
             "input height %u", dnnLayerTypeName(type), kernelH,
             span);
    return (span - kernelH) / strideH + 1;
}

std::uint32_t
DnnLayerDesc::outWidth() const
{
    std::uint32_t span = inWidth + 2 * padW;
    fatal_if(span < kernelW, "%s kernel width %u exceeds padded "
             "input width %u", dnnLayerTypeName(type), kernelW,
             span);
    return (span - kernelW) / strideW + 1;
}

std::uint64_t
DnnLayerDesc::weightElemsPerChannel() const
{
    if (type == DnnLayerType::pool)
        return 0;
    return std::uint64_t(inChannels) * kernelH * kernelW;
}

std::uint64_t
DnnLayerDesc::macsPerOutput() const
{
    // Pool windows compare R*S elements of one channel; conv/fc
    // windows multiply-accumulate over every input channel.
    std::uint64_t window = std::uint64_t(kernelH) * kernelW;
    return type == DnnLayerType::pool ? window
                                      : window * inChannels;
}

DnnLayerDesc
convLayer(std::uint32_t in_c, std::uint32_t in_h, std::uint32_t in_w,
          std::uint32_t out_c, std::uint32_t kernel,
          std::uint32_t stride, std::uint32_t pad)
{
    DnnLayerDesc d;
    d.type = DnnLayerType::conv2d;
    d.inChannels = in_c;
    d.inHeight = in_h;
    d.inWidth = in_w;
    d.outChannels = out_c;
    d.kernelH = d.kernelW = kernel;
    d.strideH = d.strideW = stride;
    d.padH = d.padW = pad;
    return d;
}

DnnLayerDesc
poolLayer(std::uint32_t in_c, std::uint32_t in_h, std::uint32_t in_w,
          std::uint32_t window, std::uint32_t stride)
{
    DnnLayerDesc d;
    d.type = DnnLayerType::pool;
    d.inChannels = in_c;
    d.inHeight = in_h;
    d.inWidth = in_w;
    d.outChannels = in_c;
    d.kernelH = d.kernelW = window;
    d.strideH = d.strideW = stride;
    return d;
}

DnnLayerDesc
fcLayer(std::uint32_t n_in, std::uint32_t n_out)
{
    DnnLayerDesc d;
    d.type = DnnLayerType::fc;
    d.inChannels = 1;
    d.inHeight = 1;
    d.inWidth = n_in;
    d.outChannels = n_out;
    d.kernelH = 1;
    d.kernelW = n_in; // full-width window: one dot product per neuron
    return d;
}

// ------------------------------ model ------------------------------

DnnModel::DnnModel(DnnNetworkConfig cfg) : config_(std::move(cfg))
{
    fatal_if(config_.layers.empty(), "network '%s' has no layers",
             config_.name.c_str());
    fatal_if(config_.batch == 0, "batch must be positive");
    for (std::uint32_t l = 0; l < numLayers(); ++l) {
        const DnnLayerDesc &d = config_.layers[l];
        fatal_if(d.inChannels == 0 || d.inHeight == 0 ||
                     d.inWidth == 0 || d.outChannels == 0,
                 "layer %u of '%s' has a zero dimension", l,
                 config_.name.c_str());
        fatal_if(d.kernelH == 0 || d.kernelW == 0 ||
                     d.strideH == 0 || d.strideW == 0,
                 "layer %u of '%s' has a zero kernel/stride", l,
                 config_.name.c_str());
        // outHeight/outWidth fatal on windows larger than the padded
        // input; evaluate them here so bad shapes fail at build.
        d.outHeight();
        d.outWidth();
        if (d.type == DnnLayerType::pool) {
            fatal_if(d.outChannels != d.inChannels,
                     "pool layer %u of '%s' must keep its channel "
                     "count (%u != %u)", l, config_.name.c_str(),
                     d.outChannels, d.inChannels);
        }
        if (d.type == DnnLayerType::fc) {
            fatal_if(d.inChannels != 1 || d.inHeight != 1 ||
                         d.kernelH != 1 || d.kernelW != d.inWidth ||
                         d.padH != 0 || d.padW != 0,
                     "fc layer %u of '%s' must be a full-width "
                     "window over a flat 1x1xN input (use "
                     "fcLayer())", l, config_.name.c_str());
        }
        if (l == 0)
            continue;
        const DnnLayerDesc &prev = config_.layers[l - 1];
        if (d.type == DnnLayerType::fc) {
            // fc flattens the producer's volume.
            fatal_if(d.inputElems() != prev.outputElems(),
                     "layer %u of '%s': fc input %llu elements != "
                     "previous output %llu", l, config_.name.c_str(),
                     (unsigned long long)d.inputElems(),
                     (unsigned long long)prev.outputElems());
        } else {
            fatal_if(d.inChannels != prev.outChannels ||
                         d.inHeight != prev.outHeight() ||
                         d.inWidth != prev.outWidth(),
                     "layer %u of '%s': input %ux%ux%u does not "
                     "match previous output %ux%ux%u", l,
                     config_.name.c_str(), d.inChannels, d.inHeight,
                     d.inWidth, prev.outChannels, prev.outHeight(),
                     prev.outWidth());
        }
    }
}

std::uint64_t
DnnModel::totalWeightElems() const
{
    std::uint64_t total = 0;
    for (const DnnLayerDesc &d : config_.layers)
        total += d.weightElemsPerChannel() * d.outChannels;
    return total;
}

std::uint64_t
DnnModel::totalMacs() const
{
    std::uint64_t total = 0;
    for (const DnnLayerDesc &d : config_.layers) {
        total += d.macsPerOutput() * std::uint64_t(d.outChannels) *
                 d.outHeight() * d.outWidth();
    }
    return total;
}

DnnModel::ActGeom
DnnModel::inputGeom(std::uint32_t l) const
{
    if (l == 0) {
        const DnnLayerDesc &d = config_.layers[0];
        return {d.inChannels, d.inHeight, d.inWidth};
    }
    return outputGeom(l - 1);
}

DnnModel::ActGeom
DnnModel::outputGeom(std::uint32_t l) const
{
    const DnnLayerDesc &d = config_.layers[l];
    return {d.outChannels, d.outHeight(), d.outWidth()};
}

// ------------------------------ layout -----------------------------

std::uint64_t
DnnLayout::rowPitch(std::uint32_t width) const
{
    // Touched words plus one guard unit: each (channel, row) is a
    // distinct double-buffer DMA slot, so bursts the hardware issues
    // per row can never be address-contiguous with the next row's.
    return (wordsFor(width, unit) + 1) * unit;
}

std::uint64_t
DnnLayout::actBytes(const DnnModel::ActGeom &g) const
{
    return std::uint64_t(g.channels) * g.height * rowPitch(g.width);
}

DnnLayout
DnnLayout::of(const DnnModel &m, std::uint32_t unit,
              std::uint64_t input_base, std::uint64_t output_base)
{
    DnnLayout l;
    l.unit = unit;
    std::uint64_t cursor = input_base;
    for (std::uint32_t i = 0; i < m.numLayers(); ++i) {
        const DnnLayerDesc &d = m.layers()[i];
        l.weightBase.push_back(cursor);
        std::uint64_t pitch =
            wordsFor(d.weightElemsPerChannel(), unit) * unit;
        l.weightPitch.push_back(pitch);
        cursor += pitch * d.outChannels;
    }
    l.imageBase = cursor;
    l.imageBytes = l.actBytes(m.inputGeom(0));
    l.inputBytes = l.imageBase + l.imageBytes - input_base;
    l.outBase = output_base != 0 ? output_base
                                 : input_base + l.inputBytes;
    for (std::uint32_t i = 1; i < m.numLayers(); ++i) {
        l.bufBytes =
            std::max(l.bufBytes, l.actBytes(m.inputGeom(i)));
    }
    l.finalBase = l.outBase + 2 * l.bufBytes;
    l.finalBytes = l.actBytes(m.outputGeom(m.numLayers() - 1));
    l.outBytes = 2 * l.bufBytes + l.finalBytes;
    return l;
}

std::uint64_t
DnnLayout::actInBase(const DnnModel &m, std::uint32_t l) const
{
    return l == 0 ? imageBase : actOutBase(m, l - 1);
}

std::uint64_t
DnnLayout::actOutBase(const DnnModel &m, std::uint32_t l) const
{
    if (l + 1 == m.numLayers())
        return finalBase;
    // Intermediate activations ping-pong: even layers write buffer
    // A, odd layers buffer B, so layer l+1 always reads the buffer
    // layer l wrote and never the one it is writing.
    return l % 2 == 0 ? outBase : outBase + bufBytes;
}

// ----------------------------- workload ----------------------------

DnnWorkload::DnnWorkload(const DnnNetworkConfig &cfg)
    : DnnWorkload(std::make_shared<DnnModel>(cfg), 1)
{}

DnnWorkload::DnnWorkload(std::shared_ptr<const DnnModel> model,
                         std::uint32_t chunk_count)
    : model_(std::move(model)), chunkCount_(chunk_count)
{
    fatal_if(chunkCount_ == 0, "chunks must be positive");
    buildSpec();
}

std::pair<std::uint32_t, std::uint32_t>
DnnWorkload::ownedChannels(std::uint32_t l) const
{
    // Chunk 0 is the representative piece: the hetero pipeline runs
    // the same chunk model once per chunk launch.
    return agentSlice(0, model_->layers()[l].outChannels, 0,
                      chunkCount_);
}

void
DnnWorkload::buildSpec()
{
    const std::uint32_t unit = 32;
    const DnnNetworkConfig &cfg = model_->config();
    DnnLayout layout = DnnLayout::of(*model_, unit, 0, 0);

    spec_.name = csprintf("%s_b%u", cfg.name.c_str(), cfg.batch);
    bool has_spatial = false;
    std::uint64_t owned_weight_bytes = 0, owned_macs = 0;
    std::uint64_t owned_store_bytes = 0;
    std::uint64_t restage_bytes = 0;
    for (std::uint32_t l = 0; l < model_->numLayers(); ++l) {
        const DnnLayerDesc &d = model_->layers()[l];
        if (d.type != DnnLayerType::fc)
            has_spatial = true;
        auto [k0, k1] = ownedChannels(l);
        std::uint64_t owned_k = k1 - k0;
        owned_weight_bytes += owned_k * layout.weightPitch[l];
        owned_macs += owned_k * d.outHeight() * d.outWidth() *
                      d.macsPerOutput();
        owned_store_bytes += owned_k * d.outHeight() *
                             wordsFor(d.outWidth(), unit) * unit;
        if (l > 0)
            restage_bytes += layout.actBytes(model_->inputGeom(l));
    }

    // A chunk ships its own weight slice plus the image — and,
    // because its output channels consume every input channel of
    // every intermediate volume (which the other chunks produce),
    // the full intermediate-activation footprint restages with each
    // chunk. The full model stages weights + image once and keeps
    // activations resident.
    spec_.inputBytes = owned_weight_bytes + layout.imageBytes +
                       (chunkCount_ > 1 ? restage_bytes : 0);
    spec_.outputBytes =
        std::max<std::uint64_t>(unit, owned_store_bytes);
    spec_.pattern =
        has_spatial ? Pattern::strided : Pattern::streaming;
    double ops_per_byte =
        double(cfg.batch) * double(owned_macs) /
        double(spec_.inputBytes + spec_.outputBytes);
    spec_.opsPerByte = ops_per_byte;
    // Weight streaming dominates inference volume on fc-heavy nets;
    // conv-heavy nets reuse their small windows enough to be
    // compute-bound.
    if (owned_weight_bytes * 2 >
        spec_.inputBytes + spec_.outputBytes) {
        spec_.klass = WorkloadClass::readIntensive;
    } else if (ops_per_byte > 1.0) {
        spec_.klass = WorkloadClass::computeIntensive;
    } else {
        spec_.klass = WorkloadClass::balanced;
    }
}

std::shared_ptr<const WorkloadModel>
DnnWorkload::scaled(double factor) const
{
    fatal_if(factor <= 0.0, "scale factor must be positive");
    DnnNetworkConfig cfg = model_->config();
    // Scale the channel/feature axes and re-propagate the shape
    // chain (spatial dims are fixed by the image, so conv/pool
    // windows keep fitting).
    for (std::uint32_t l = 0; l < cfg.layers.size(); ++l) {
        DnnLayerDesc &d = cfg.layers[l];
        if (l == 0) {
            if (d.type == DnnLayerType::fc) {
                d.inWidth = scaleDim(d.inWidth, factor);
                d.kernelW = d.inWidth;
            } else {
                d.inChannels = scaleDim(d.inChannels, factor);
            }
        } else {
            const DnnLayerDesc &prev = cfg.layers[l - 1];
            if (d.type == DnnLayerType::fc) {
                d.inChannels = 1;
                d.inHeight = 1;
                d.inWidth = std::uint32_t(prev.outputElems());
                d.kernelW = d.inWidth;
            } else {
                d.inChannels = prev.outChannels;
                d.inHeight = prev.outHeight();
                d.inWidth = prev.outWidth();
            }
        }
        if (d.type == DnnLayerType::pool)
            d.outChannels = d.inChannels;
        else
            d.outChannels = scaleDim(d.outChannels, factor);
    }
    auto copy = std::shared_ptr<DnnWorkload>(new DnnWorkload(
        std::make_shared<DnnModel>(std::move(cfg)), 1));
    // Scaling is a volume knob, not a new workload: keep the name so
    // result matrices key the same row before and after scaling.
    copy->spec_.name = spec_.name;
    return copy;
}

std::shared_ptr<const WorkloadModel>
DnnWorkload::chunked(std::uint32_t chunks) const
{
    fatal_if(chunks == 0, "chunks must be positive");
    auto copy = std::shared_ptr<DnnWorkload>(
        new DnnWorkload(model_, chunkCount_ * chunks));
    copy->spec_.name = spec_.name;
    return copy;
}

std::unique_ptr<AgentTraceSource>
DnnWorkload::makeAgentTrace(const AgentTraceParams &p) const
{
    fatal_if(p.numAgents == 0 || p.agentIndex >= p.numAgents,
             "bad agent slice");
    fatal_if(p.accessBytes == 0 || p.accessBytes % 32 != 0,
             "access size must be a positive multiple of 32");
    DnnLayout layout = DnnLayout::of(*model_, p.accessBytes,
                                     p.inputBase, p.outputBase);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> owned;
    for (std::uint32_t l = 0; l < model_->numLayers(); ++l) {
        auto [k0, k1] = ownedChannels(l);
        owned.push_back(
            agentSlice(k0, k1, p.agentIndex, p.numAgents));
    }
    return std::make_unique<DnnTraceSource>(
        model_, layout, std::move(owned), model_->config().batch);
}

// --------------------------- trace source --------------------------

DnnTraceSource::DnnTraceSource(
    std::shared_ptr<const DnnModel> model, const DnnLayout &layout,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> owned,
    std::uint32_t batch)
    : model_(std::move(model)), layout_(layout),
      owned_(std::move(owned)), batch_(batch)
{
    rewind();
}

void
DnnTraceSource::rewind()
{
    b_ = 0;
    l_ = 0;
    tile_ = 0;
    emittedAny_ = false;
    done_ = false;
    dropStaged();
}

std::pair<std::uint64_t, std::uint64_t>
DnnTraceSource::outputRegion() const
{
    // Every agent writes its channel planes of both ping-pong
    // buffers and the final region; report the whole footprint, like
    // the BFS trace does for its scattered discovery stores.
    return {layout_.outBase, layout_.outBytes};
}

void
DnnTraceSource::stageTilePass(std::uint32_t l, std::uint32_t t0,
                              std::uint32_t t1)
{
    const DnnLayerDesc &d = model_->layers()[l];
    const DnnModel::ActGeom geom = model_->inputGeom(l);
    const std::uint32_t unit = layout_.unit;

    // Weight streaming: the tile's per-channel blocks, word by word
    // and contiguous (they coalesce into long PRAM bursts).
    if (d.type != DnnLayerType::pool) {
        std::uint64_t wwords = layout_.weightPitch[l] / unit;
        for (std::uint32_t k = t0; k < t1; ++k) {
            std::uint64_t base = layout_.weightBase[l] +
                                 std::uint64_t(k) *
                                     layout_.weightPitch[l];
            for (std::uint64_t w = 0; w < wwords; ++w) {
                stage(accel::TraceItem::loadOf(base + w * unit, unit));
            }
        }
    }

    const std::uint64_t in_base = layout_.actInBase(*model_, l);
    const std::uint64_t out_base = layout_.actOutBase(*model_, l);
    const std::uint64_t in_pitch = layout_.rowPitch(geom.width);
    const std::uint64_t in_row_words = wordsFor(geom.width, unit);
    const std::uint32_t out_h = d.outHeight();
    const std::uint32_t out_w = d.outWidth();
    const std::uint64_t out_pitch = layout_.rowPitch(out_w);
    const std::uint64_t out_row_words = wordsFor(out_w, unit);
    // fc reads the whole flattened input per tile pass; conv/pool
    // slide a window over rows (desc dims == buffer geometry,
    // enforced at model build).
    const bool windowed = d.type != DnnLayerType::fc;

    std::uint32_t buffered_end = 0;
    for (std::uint32_t p = 0; p < out_h; ++p) {
        std::uint32_t row_begin = 0, row_end = geom.height;
        if (windowed) {
            std::int64_t start =
                std::int64_t(p) * d.strideH - d.padH;
            row_begin = std::uint32_t(std::max<std::int64_t>(
                0, start));
            row_end = std::uint32_t(std::min<std::int64_t>(
                geom.height, start + d.kernelH));
            if (row_end < row_begin)
                row_end = row_begin;
        }
        // Sliding-window reuse: rows already resident in the double
        // buffer from the previous output row are not refetched.
        for (std::uint32_t h = std::max(row_begin, buffered_end);
             h < row_end; ++h) {
            // Conv/fc output channels consume every input channel;
            // pool reduces each channel independently.
            std::uint32_t c0 = 0, c1 = geom.channels;
            if (d.type == DnnLayerType::pool) {
                c0 = t0;
                c1 = t1;
            }
            for (std::uint32_t c = c0; c < c1; ++c) {
                std::uint64_t row = in_base +
                    (std::uint64_t(c) * geom.height + h) * in_pitch;
                for (std::uint64_t w = 0; w < in_row_words; ++w) {
                    stage(accel::TraceItem::loadOf(row + w * unit, unit));
                }
            }
        }
        buffered_end = std::max(buffered_end, row_end);

        // Output-stationary compute: the tile's partial sums for
        // this output row accumulate PE-locally (one instruction per
        // MAC, no psum traffic).
        stage(accel::TraceItem::computeOf(
            std::uint64_t(t1 - t0) * out_w * d.macsPerOutput()));

        // The row's outputs are final once the window passes: store
        // each tile channel's output row.
        for (std::uint32_t k = t0; k < t1; ++k) {
            std::uint64_t row = out_base +
                (std::uint64_t(k) * out_h + p) * out_pitch;
            for (std::uint64_t w = 0; w < out_row_words; ++w) {
                stage(accel::TraceItem::storeOf(row + w * unit, unit));
            }
        }
    }
}

void
DnnTraceSource::refill()
{
    const std::uint32_t tile_cfg = model_->config().tileChannels;
    while (staged() < kRefillBatch && !done_) {
        if (l_ >= model_->numLayers()) {
            ++b_;
            l_ = 0;
            tile_ = 0;
            if (b_ >= batch_) {
                if (!emittedAny_) {
                    // Empty partition (more agents than channels in
                    // every layer): emit a sentinel so the PE still
                    // boots and retires.
                    stage(accel::TraceItem::computeOf(1));
                }
                done_ = true;
            }
            continue;
        }
        auto [k0, k1] = owned_[l_];
        std::uint32_t tile_begin = k0 + tile_;
        if (k0 >= k1 || tile_begin >= k1) {
            ++l_;
            tile_ = 0;
            continue;
        }
        std::uint32_t tile_k =
            tile_cfg == 0 ? k1 - k0 : tile_cfg;
        std::uint32_t tile_end =
            std::min(k1, tile_begin + tile_k);
        stageTilePass(l_, tile_begin, tile_end);
        tile_ += tile_end - tile_begin;
        emittedAny_ = true;
    }
}

// ----------------------------- registry ----------------------------

std::vector<DnnNetworkConfig>
dnnNetworks()
{
    std::vector<DnnNetworkConfig> nets;

    // A LeNet-style CNN: small convolutions with pooling, then a
    // fully-connected head — the conv-reuse-heavy end of the family.
    DnnNetworkConfig lenet;
    lenet.name = "lenet";
    lenet.layers = {
        convLayer(1, 32, 32, 6, 5),
        poolLayer(6, 28, 28, 2, 2),
        convLayer(6, 14, 14, 16, 5),
        poolLayer(16, 10, 10, 2, 2),
        fcLayer(400, 120),
        fcLayer(120, 84),
        fcLayer(84, 10),
    };
    nets.push_back(lenet);

    // An MNIST-shaped MLP: pure fully-connected layers, weight
    // streaming dominated.
    DnnNetworkConfig mlp;
    mlp.name = "mlp";
    mlp.layers = {
        fcLayer(784, 256),
        fcLayer(256, 128),
        fcLayer(128, 10),
    };
    nets.push_back(mlp);

    // A transformer-style feed-forward stack: alternating expand /
    // contract GEMMs (d_model 192, d_ff 768) — the GEMM-heavy,
    // bandwidth-bound end of the family.
    DnnNetworkConfig ffn;
    ffn.name = "ffn";
    ffn.layers = {
        fcLayer(192, 768),
        fcLayer(768, 192),
        fcLayer(192, 768),
        fcLayer(768, 192),
    };
    nets.push_back(ffn);

    return nets;
}

DnnNetworkConfig
dnnNetworkByName(const std::string &name)
{
    for (DnnNetworkConfig &cfg : dnnNetworks()) {
        if (cfg.name == name)
            return cfg;
    }
    fatal("unknown DNN network '%s' (known: lenet, mlp, ffn)",
          name.c_str());
}

std::shared_ptr<const WorkloadModel>
dnnModelFor(const std::string &name, std::uint32_t batch)
{
    DnnNetworkConfig cfg = dnnNetworkByName(name);
    cfg.batch = batch;
    return std::make_shared<DnnWorkload>(cfg);
}

} // namespace workload
} // namespace dramless
