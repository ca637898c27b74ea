/**
 * @file
 * DNN inference workload family.
 *
 * The paper evaluates PRAM-backed acceleration on Polybench kernels
 * and (since the graph engine landed) graph analytics; DNN inference
 * is the canonical "millions of users" accelerator workload the
 * serving layer was built to carry. A DnnModel is an ordered list of
 * layer descriptors (conv2d / fully-connected / pool with shapes,
 * strides and padding); DnnTraceSource emits the per-PE 32B-word
 * access stream of an output-stationary tiling schedule over it:
 * weights stream from PRAM once per tile pass, input activations are
 * double-buffered row by row through the L2 region with
 * sliding-window reuse, partial sums accumulate PE-locally (compute
 * ticks between memory bursts, no psum traffic), and finished output
 * rows store back. Output channels partition contiguously across PEs
 * the same way GraphTraceSource partitions vertices, all behind the
 * WorkloadModel interface Polybench and the graph engine share.
 */

#ifndef DRAMLESS_WORKLOAD_DNN_HH
#define DRAMLESS_WORKLOAD_DNN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload/workload_model.hh"

namespace dramless
{
namespace workload
{

/** The three modeled layer types. */
enum class DnnLayerType
{
    conv2d,
    fc,
    pool,
};

/** @return a short lowercase label of @p t. */
const char *dnnLayerTypeName(DnnLayerType t);

/**
 * One layer's shape. Input is a C x H x W activation volume; conv2d
 * slides an R x S window per (input-channel, output-channel) pair,
 * pool reduces an R x S window per channel (no weights), and fc is
 * expressed as a full-width window over a flattened 1 x 1 x N input
 * (kernelW == inWidth, so every output neuron consumes the whole
 * vector — use fcLayer()).
 */
struct DnnLayerDesc
{
    DnnLayerType type = DnnLayerType::conv2d;
    /** Input volume: channels x height x width. */
    std::uint32_t inChannels = 1;
    std::uint32_t inHeight = 1;
    std::uint32_t inWidth = 1;
    /** Output channels (pool: must equal inChannels). */
    std::uint32_t outChannels = 1;
    /** Window shape (weights per output channel = C*R*S for conv). */
    std::uint32_t kernelH = 1;
    std::uint32_t kernelW = 1;
    std::uint32_t strideH = 1;
    std::uint32_t strideW = 1;
    /** Zero padding (rows/columns of implicit zeros, never read). */
    std::uint32_t padH = 0;
    std::uint32_t padW = 0;

    /** @return output spatial height P / width Q. */
    std::uint32_t outHeight() const;
    std::uint32_t outWidth() const;

    std::uint64_t inputElems() const
    {
        return std::uint64_t(inChannels) * inHeight * inWidth;
    }
    std::uint64_t outputElems() const
    {
        return std::uint64_t(outChannels) * outHeight() * outWidth();
    }
    /** @return weight elements per output channel (0 for pool). */
    std::uint64_t weightElemsPerChannel() const;
    /** @return MACs (pool: compares) per output element. */
    std::uint64_t macsPerOutput() const;
};

/** @return a conv2d descriptor over a C x H x W input. */
DnnLayerDesc convLayer(std::uint32_t in_c, std::uint32_t in_h,
                       std::uint32_t in_w, std::uint32_t out_c,
                       std::uint32_t kernel, std::uint32_t stride = 1,
                       std::uint32_t pad = 0);
/** @return a per-channel pool descriptor (window x window). */
DnnLayerDesc poolLayer(std::uint32_t in_c, std::uint32_t in_h,
                       std::uint32_t in_w, std::uint32_t window,
                       std::uint32_t stride);
/** @return a fully-connected descriptor (n_in -> n_out neurons). */
DnnLayerDesc fcLayer(std::uint32_t n_in, std::uint32_t n_out);

/** One inference workload: a network, a batch, a tile size. */
struct DnnNetworkConfig
{
    std::string name = "dnn";
    std::vector<DnnLayerDesc> layers;
    /** Inferences per kernel launch; each re-streams the weights
     *  (the batch axis of the sweep). */
    std::uint32_t batch = 1;
    /** Output channels whose weights fit the PE weight buffer at
     *  once: one tile pass streams tileChannels channels' weights
     *  and sweeps the input once. 0 = everything in one pass. */
    std::uint32_t tileChannels = 4;
};

/**
 * A validated network: ordered layer descriptors whose shapes chain
 * (conv/pool input dims must equal the previous layer's output dims
 * exactly; fc flattens, requiring only equal element counts).
 * Immutable after construction, so one instance is safely shared
 * across agents, chunk copies and sweep jobs.
 */
class DnnModel
{
  public:
    explicit DnnModel(DnnNetworkConfig cfg);

    const DnnNetworkConfig &config() const { return config_; }
    const std::vector<DnnLayerDesc> &layers() const
    {
        return config_.layers;
    }
    std::uint32_t numLayers() const
    {
        return std::uint32_t(config_.layers.size());
    }

    /** @return total weight elements across all layers. */
    std::uint64_t totalWeightElems() const;
    /** @return total MACs of one inference. */
    std::uint64_t totalMacs() const;

    /**
     * The activation geometry of layer @p l's *input buffer*: the
     * producing layer's output volume (layer 0: the staged image).
     * fc layers read whatever row structure the producer wrote, so
     * geometry can differ from the descriptor's flattened 1x1xN.
     */
    struct ActGeom
    {
        std::uint32_t channels = 1;
        std::uint32_t height = 1;
        std::uint32_t width = 1;
    };
    ActGeom inputGeom(std::uint32_t l) const;
    /** @return the geometry of layer @p l's output volume. */
    ActGeom outputGeom(std::uint32_t l) const;

  private:
    DnnNetworkConfig config_;
};

/**
 * Address-space image of one network at a given access unit.
 * Weights pad each output channel's block to whole units so blocks
 * stay word-aligned and contiguous (they must coalesce). Activation
 * volumes are row-pitched: each (channel, row) occupies whole units
 * plus one trailing guard unit, so the row DMAs the double buffer
 * issues are never address-contiguous and bursts cannot fuse across
 * row boundaries.
 *
 *   input:  [weights L0 | weights L1 | ... | image]
 *   output: [act buffer A | act buffer B | final output]
 *
 * Intermediate activations ping-pong between the two buffers (layer
 * l reads what layer l-1 wrote); the last layer writes the final
 * region.
 */
struct DnnLayout
{
    std::uint32_t unit = 32;
    /** Per-layer weight region base and per-output-channel pitch
     *  (bytes; pitch 0 for pool). */
    std::vector<std::uint64_t> weightBase;
    std::vector<std::uint64_t> weightPitch;
    std::uint64_t imageBase = 0, imageBytes = 0;
    std::uint64_t inputBytes = 0;
    std::uint64_t outBase = 0;
    /** One ping-pong activation buffer (max intermediate volume). */
    std::uint64_t bufBytes = 0;
    std::uint64_t finalBase = 0, finalBytes = 0;
    std::uint64_t outBytes = 0;

    static DnnLayout of(const DnnModel &m, std::uint32_t unit,
                        std::uint64_t input_base,
                        std::uint64_t output_base);

    /** @return bytes of one row-pitched row of a @p width-element
     *  activation row (touched words + the guard unit). */
    std::uint64_t rowPitch(std::uint32_t width) const;
    /** @return bytes of a row-pitched C x H x W volume. */
    std::uint64_t actBytes(const DnnModel::ActGeom &g) const;
    /** @return the base address layer @p l reads activations from. */
    std::uint64_t actInBase(const DnnModel &m, std::uint32_t l) const;
    /** @return the base address layer @p l writes activations to. */
    std::uint64_t actOutBase(const DnnModel &m,
                             std::uint32_t l) const;
};

/**
 * DNN inference behind the WorkloadModel interface. chunked() splits
 * output channels per layer but every chunk re-reads the full input
 * activation volumes (a conv output channel consumes every input
 * channel, which other chunks produced), so the chunk's staged input
 * keeps the whole intermediate-activation footprint — the hetero
 * restaging penalty, exactly like the graph engine's shared vertex
 * region.
 */
class DnnWorkload : public WorkloadModel
{
  public:
    explicit DnnWorkload(const DnnNetworkConfig &cfg);

    const WorkloadSpec &spec() const override { return spec_; }

    /** Volume scaling shrinks channel/feature counts (min 1 each)
     *  and re-propagates the shape chain; the name is kept so result
     *  matrices key the same row at any scale. */
    std::shared_ptr<const WorkloadModel>
    scaled(double factor) const override;

    std::shared_ptr<const WorkloadModel>
    chunked(std::uint32_t chunks) const override;

    std::unique_ptr<AgentTraceSource>
    makeAgentTrace(const AgentTraceParams &p) const override;

    const DnnModel &model() const { return *model_; }
    /** 1 unless this is a chunked() copy owning 1/chunkCount of
     *  every layer's output channels. */
    std::uint32_t chunkCount() const { return chunkCount_; }
    /** Output channels of layer @p l this model's traces process. */
    std::pair<std::uint32_t, std::uint32_t>
    ownedChannels(std::uint32_t l) const;

  private:
    DnnWorkload(std::shared_ptr<const DnnModel> model,
                std::uint32_t chunk_count);

    /** Derive the WorkloadSpec from the model and chunk share. */
    void buildSpec();

    std::shared_ptr<const DnnModel> model_;
    std::uint32_t chunkCount_ = 1;
    WorkloadSpec spec_;
};

/**
 * Per-agent trace of one inference batch over a contiguous
 * output-channel partition of every layer. Emission is a pure
 * function of (network, partition, layout) — no RNG — so equal
 * configs give bit-identical streams.
 */
class DnnTraceSource : public AgentTraceSource
{
  public:
    DnnTraceSource(std::shared_ptr<const DnnModel> model,
                   const DnnLayout &layout,
                   std::vector<std::pair<std::uint32_t,
                                         std::uint32_t>> owned,
                   std::uint32_t batch);

    void rewind() override;

    std::pair<std::uint64_t, std::uint64_t>
    outputRegion() const override;

    /** This agent's output-channel partition of layer @p l. */
    std::pair<std::uint32_t, std::uint32_t>
    channelRange(std::uint32_t l) const
    {
        return owned_[l];
    }

  private:
    /** Stage whole tile passes until a batch is staged or the
     *  inference ends (or the empty-partition sentinel). */
    void refill() override;
    /** Stage one full tile pass of layer @p l over channels
     *  [t0, t1): weights, row sweep, compute, output stores. */
    void stageTilePass(std::uint32_t l, std::uint32_t t0,
                       std::uint32_t t1);

    std::shared_ptr<const DnnModel> model_;
    DnnLayout layout_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> owned_;
    std::uint32_t batch_ = 1;

    std::uint32_t b_ = 0;
    std::uint32_t l_ = 0;
    std::uint32_t tile_ = 0;
    bool emittedAny_ = false;
    bool done_ = false;
};

/** @return the named networks of the registry ("lenet", "mlp",
 *  "ffn"), batch 1. */
std::vector<DnnNetworkConfig> dnnNetworks();

/** @return the registry entry named @p name; fatal() on unknown
 *  names. */
DnnNetworkConfig dnnNetworkByName(const std::string &name);

/** @return a shared DnnWorkload over the named network at @p batch. */
std::shared_ptr<const WorkloadModel>
dnnModelFor(const std::string &name, std::uint32_t batch = 1);

} // namespace workload
} // namespace dramless

#endif // DRAMLESS_WORKLOAD_DNN_HH
