/**
 * @file
 * Hand-built instruction streams and kernels for unit tests.
 */

#ifndef EQ_TESTS_TEST_STREAMS_HH
#define EQ_TESTS_TEST_STREAMS_HH

#include <functional>
#include <memory>
#include <vector>

#include "gpu/kernel_launch.hh"

namespace equalizer::testing
{

/** Plays back a fixed vector of instructions. */
class VectorStream : public InstructionStream
{
  public:
    explicit VectorStream(std::vector<WarpInstruction> insts)
        : insts_(std::move(insts))
    {
    }

    bool
    next(WarpInstruction &out) override
    {
        if (pos_ >= insts_.size())
            return false;
        out = insts_[pos_++];
        return true;
    }

  private:
    std::vector<WarpInstruction> insts_;
    std::size_t pos_ = 0;
};

/** A kernel whose warps all play the same scripted instruction list. */
class ScriptedKernel : public KernelLaunch
{
  public:
    ScriptedKernel(KernelInfo info, std::vector<WarpInstruction> script)
        : info_(std::move(info)), script_(std::move(script))
    {
    }

    /** Per-warp script variant: receives (block, warp_in_block). */
    using ScriptFn =
        std::function<std::vector<WarpInstruction>(BlockId, int)>;

    ScriptedKernel(KernelInfo info, ScriptFn fn)
        : info_(std::move(info)), fn_(std::move(fn))
    {
    }

    const KernelInfo &info() const override { return info_; }

    std::unique_ptr<InstructionStream>
    makeWarpStream(BlockId block, int warp_in_block) const override
    {
        if (fn_)
            return std::make_unique<VectorStream>(fn_(block, warp_in_block));
        return std::make_unique<VectorStream>(script_);
    }

  private:
    KernelInfo info_;
    std::vector<WarpInstruction> script_;
    ScriptFn fn_;
};

/** Shorthand builders. */
inline WarpInstruction
aluInst(bool depends_on_prev = false)
{
    WarpInstruction i;
    i.op = OpClass::Alu;
    i.dependsOnPrev = depends_on_prev;
    return i;
}

inline WarpInstruction
loadInst(Addr line, bool depends_on_loads_next = false)
{
    (void)depends_on_loads_next;
    WarpInstruction i;
    i.op = OpClass::Mem;
    i.transactionCount = 1;
    i.base = line;
    return i;
}

inline WarpInstruction
loadUse()
{
    WarpInstruction i;
    i.op = OpClass::Alu;
    i.dependsOnLoads = true;
    return i;
}

inline WarpInstruction
storeInst(Addr line)
{
    WarpInstruction i;
    i.op = OpClass::Mem;
    i.write = true;
    i.transactionCount = 1;
    i.base = line;
    return i;
}

inline WarpInstruction
syncInst()
{
    WarpInstruction i;
    i.op = OpClass::Sync;
    return i;
}

/**
 * Per-warp script of @p loads two-line loads, each followed by its
 * use, streaming through a 16 MiB region of each (block, warp).
 */
inline ScriptedKernel::ScriptFn
privateLoads(int loads)
{
    return [loads](BlockId b, int w) {
        std::vector<WarpInstruction> s;
        const Addr base = (static_cast<Addr>(b) * 64 + static_cast<Addr>(w))
                          << 24;
        for (int i = 0; i < loads; ++i) {
            WarpInstruction ld = loadInst(base + static_cast<Addr>(i) * 256);
            ld.transactionCount = 2;
            s.push_back(ld);
            s.push_back(loadUse());
        }
        return s;
    };
}

} // namespace equalizer::testing

#endif // EQ_TESTS_TEST_STREAMS_HH
