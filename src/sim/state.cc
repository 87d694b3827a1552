#include "state.hh"

#include <cstring>
#include <fstream>

#include "gpu/gpu_config.hh"
#include "power/energy_model.hh"

namespace equalizer
{

namespace
{

/** 8-byte magic opening every checkpoint. */
constexpr std::uint8_t checkpointMagic[8] = {'E', 'Q', 'Z', 'S',
                                             'N', 'A', 'P', '\0'};

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x00000100000001b3ull;

/** Incremental FNV-1a used for the configuration fingerprint. */
class FnvHasher
{
  public:
    void
    addBytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= b[i];
            hash_ *= fnvPrime;
        }
    }

    void
    add(std::uint64_t v)
    {
        addBytes(&v, sizeof(v));
    }

    void
    add(std::int64_t v)
    {
        add(static_cast<std::uint64_t>(v));
    }

    void
    add(int v)
    {
        add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = fnvOffset;
};

} // namespace

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n)
{
    std::uint64_t hash = fnvOffset;
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= data[i];
        hash *= fnvPrime;
    }
    return hash;
}

//
// BufferStateWriter
//

BufferStateWriter::BufferStateWriter(std::uint64_t config_fingerprint)
{
    raw(checkpointMagic, sizeof(checkpointMagic));
    putU32(checkpointFormatVersion);
    putU64(config_fingerprint);
}

void
BufferStateWriter::raw(const void *p, std::size_t n)
{
    if (n == 0)
        return;
    const std::size_t offset = buf_.size();
    buf_.resize(offset + n);
    std::memcpy(buf_.data() + offset, p, n);
}

void
BufferStateWriter::putU32(std::uint32_t v)
{
    raw(&v, sizeof(v));
}

void
BufferStateWriter::putU64(std::uint64_t v)
{
    raw(&v, sizeof(v));
}

void
BufferStateWriter::beginSection(const char *tag, std::uint32_t version)
{
    const std::size_t tag_len = std::strlen(tag);
    putU32(static_cast<std::uint32_t>(tag_len));
    raw(tag, tag_len);
    putU32(version);
    const std::size_t length_offset = buf_.size();
    putU64(0); // payload length, backpatched in endSection()
    frames_.push_back(Frame{std::string(tag), length_offset, buf_.size()});
}

void
BufferStateWriter::endSection()
{
    EQ_ASSERT(!frames_.empty(), "endSection() without beginSection()");
    const Frame frame = frames_.back();
    frames_.pop_back();
    const std::uint64_t payload_len = buf_.size() - frame.payloadStart;
    std::memcpy(buf_.data() + frame.lengthOffset, &payload_len,
                sizeof(payload_len));
    putU64(fnv1a(buf_.data() + frame.payloadStart,
                 static_cast<std::size_t>(payload_len)));
}

void
BufferStateWriter::bytes(void *data, std::size_t n)
{
    raw(data, n);
}

std::vector<std::uint8_t>
BufferStateWriter::take()
{
    EQ_ASSERT(frames_.empty(), "checkpoint finalized with open sections");
    return std::move(buf_);
}

//
// BufferStateReader
//

BufferStateReader::BufferStateReader(std::vector<std::uint8_t> buf,
                                     std::uint64_t expected_fingerprint)
    : buf_(std::move(buf))
{
    need(sizeof(checkpointMagic));
    if (std::memcmp(buf_.data(), checkpointMagic,
                    sizeof(checkpointMagic)) != 0)
        fatal("not a checkpoint: bad magic");
    pos_ = sizeof(checkpointMagic);
    const std::uint32_t version = getU32();
    if (version != checkpointFormatVersion)
        fatal("checkpoint format version ", version,
              " unsupported (this build reads version ",
              checkpointFormatVersion, ")");
    fingerprint_ = getU64();
    if (fingerprint_ != expected_fingerprint)
        fatal("checkpoint was taken under a different configuration "
              "(fingerprint ", fingerprint_, ", live configuration ",
              expected_fingerprint, ")");
}

void
BufferStateReader::need(std::size_t n) const
{
    const std::size_t limit =
        frames_.empty() ? buf_.size() : frames_.back().payloadEnd;
    if (pos_ + n > limit)
        fatal("checkpoint truncated or corrupt: read of ", n,
              " bytes crosses a ",
              frames_.empty() ? "buffer" : "section", " boundary");
}

std::uint32_t
BufferStateReader::getU32()
{
    std::uint32_t v;
    need(sizeof(v));
    std::memcpy(&v, buf_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
}

std::uint64_t
BufferStateReader::getU64()
{
    std::uint64_t v;
    need(sizeof(v));
    std::memcpy(&v, buf_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
}

void
BufferStateReader::beginSection(const char *tag, std::uint32_t version)
{
    const std::uint32_t tag_len = getU32();
    need(tag_len);
    std::string stored(reinterpret_cast<const char *>(buf_.data() + pos_),
                       tag_len);
    pos_ += tag_len;
    if (stored != tag)
        fatal("checkpoint section mismatch: expected '", tag, "', found '",
              stored, "'");
    const std::uint32_t stored_version = getU32();
    if (stored_version != version)
        fatal("checkpoint section '", tag, "' has version ",
              stored_version, ", but this build reads version ", version);
    const std::uint64_t payload_len = getU64();
    const std::size_t payload_start = pos_;
    const std::size_t payload_end =
        payload_start + static_cast<std::size_t>(payload_len);
    const std::size_t limit =
        frames_.empty() ? buf_.size() : frames_.back().payloadEnd;
    if (payload_end + sizeof(std::uint64_t) > limit)
        fatal("checkpoint truncated inside section '", tag, "'");
    frames_.push_back(Frame{std::move(stored), payload_start, payload_end});
}

void
BufferStateReader::endSection()
{
    EQ_ASSERT(!frames_.empty(), "endSection() without beginSection()");
    const Frame frame = frames_.back();
    frames_.pop_back();
    if (pos_ != frame.payloadEnd)
        fatal("checkpoint section '", frame.tag, "' has ",
              frame.payloadEnd - pos_, " unread bytes — layout mismatch");
    const std::uint64_t stored = getU64();
    const std::uint64_t computed =
        fnv1a(buf_.data() + frame.payloadStart,
              frame.payloadEnd - frame.payloadStart);
    if (stored != computed)
        fatal("checkpoint section '", frame.tag,
              "' failed its checksum — file corrupt");
}

void
BufferStateReader::skipRemainingSection()
{
    EQ_ASSERT(!frames_.empty(),
              "skipRemainingSection() outside a section");
    pos_ = frames_.back().payloadEnd;
}

void
BufferStateReader::checkCount(std::uint64_t n, std::size_t min_bytes)
{
    const std::size_t limit =
        frames_.empty() ? buf_.size() : frames_.back().payloadEnd;
    if (n <= (limit - pos_) / min_bytes)
        return;
    const std::string tag = frames_.empty() ? "" : frames_.back().tag;
    fatal("checkpoint truncated or corrupt: count ", n, " in section '",
          tag, "' overruns its ", limit - pos_, " remaining bytes");
}

void
BufferStateReader::bytes(void *data, std::size_t n)
{
    need(n);
    std::memcpy(data, buf_.data() + pos_, n);
    pos_ += n;
}

void
BufferStateReader::finish() const
{
    EQ_ASSERT(frames_.empty(), "finish() with open sections");
    if (pos_ != buf_.size())
        fatal("checkpoint has ", buf_.size() - pos_,
              " trailing bytes — layout mismatch");
}

//
// Configuration fingerprint
//

std::uint64_t
configFingerprint(const GpuConfig &gpu, const PowerConfig &power)
{
    FnvHasher h;
    h.add(gpu.numSms);
    h.add(gpu.maxBlocksPerSm);
    h.add(gpu.maxWarpsPerSm);
    h.add(gpu.issueWidth);
    h.add(gpu.aluDepLatency);
    h.add(gpu.sfuDepLatency);
    h.add(gpu.lsuQueueDepth);
    h.add(gpu.lsuThroughput);
    h.add(gpu.smemLatency);
    h.add(gpu.regReadPorts);
    h.add(gpu.smNominalHz);
    h.add(gpu.memNominalHz);
    h.add(static_cast<int>(gpu.scheduler));

    const MemConfig &m = gpu.mem;
    h.add(m.l1Sets);
    h.add(m.l1Ways);
    h.add(m.l1MshrEntries);
    h.add(m.l1MaxMerges);
    h.add(m.l1HitLatency);
    h.add(m.numPartitions);
    h.add(m.nocRequestLatency);
    h.add(m.nocResponseLatency);
    h.add(m.nocRequestBwPerCycle);
    h.add(m.nocResponseBwPerCycle);
    h.add(m.smInjectQueueCap);
    h.add(m.texInjectQueueCap);
    h.add(m.partitionInQueueCap);
    h.add(m.smResponseQueueCap);
    h.add(m.l2SetsPerPartition);
    h.add(m.l2Ways);
    h.add(m.l2HitLatency);
    h.add(m.dramQueueCap);
    h.add(m.banksPerPartition);
    h.add(m.linesPerRow);
    h.add(m.dramRowHitCycles);
    h.add(m.dramRowMissCycles);
    h.add(m.dramPowerDownIdleCycles);
    h.add(m.dramPowerUpCycles);

    for (double e : power.eventEnergy)
        h.add(e);
    h.add(power.smLeakageWatts);
    h.add(power.memLeakageWatts);
    h.add(power.dramStandbyWatts);
    h.add(power.dramStandbySlope);
    h.add(power.dramPowerDownFactor);
    return h.value();
}

//
// File I/O
//

void
writeCheckpointFile(const std::string &path,
                    const std::vector<std::uint8_t> &buf)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open checkpoint file '", path, "' for writing");
    out.write(reinterpret_cast<const char *>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    out.flush();
    if (!out)
        fatal("short write to checkpoint file '", path, "'");
}

std::vector<std::uint8_t>
readCheckpointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        fatal("cannot open checkpoint file '", path, "'");
    const std::streamsize size = in.tellg();
    in.seekg(0, std::ios::beg);
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(buf.data()), size);
    if (!in)
        fatal("short read from checkpoint file '", path, "'");
    return buf;
}

} // namespace equalizer
