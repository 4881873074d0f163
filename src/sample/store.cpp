#include "sample/store.h"

#include <cmath>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "checkpoint/generator.h"

namespace minjie::sample {

namespace {

constexpr uint64_t MAGIC = 0x4d4a504b30303031ULL; // "MJPK0001"
constexpr uint64_t VERSION = 1;
constexpr size_t HEADER_U64 = 6;
constexpr size_t TABLE_U64 = 5;
constexpr size_t PAGE = mem::PhysMem::PAGE_SIZE;

void
put64(std::vector<uint8_t> &v, uint64_t x)
{
    size_t off = v.size();
    v.resize(off + 8);
    std::memcpy(v.data() + off, &x, 8);
}

uint64_t
rd64(const uint8_t *p)
{
    uint64_t x;
    std::memcpy(&x, p, 8);
    return x;
}

/** FNV-1a over one page, folded 8 bytes at a time. */
uint64_t
hashPage(const uint8_t *page)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < PAGE; i += 8) {
        uint64_t w;
        std::memcpy(&w, page + i, 8);
        h = (h ^ w) * 0x100000001b3ULL;
    }
    return h;
}

bool
writeAll(int fd, const uint8_t *p, size_t n)
{
    while (n) {
        ssize_t w = ::write(fd, p, n);
        if (w <= 0)
            return false;
        p += static_cast<size_t>(w);
        n -= static_cast<size_t>(w);
    }
    return true;
}

} // namespace

uint64_t
PackWriter::poolIndexFor(const uint8_t *page)
{
    uint64_t h = hashPage(page);
    auto &bucket = hashToIdx_[h];
    for (uint64_t idx : bucket) {
        if (std::memcmp(pool_.data() + idx * PAGE, page, PAGE) == 0)
            return idx;
    }
    uint64_t idx = pool_.size() / PAGE;
    pool_.insert(pool_.end(), page, page + PAGE);
    bucket.push_back(idx);
    return idx;
}

bool
PackWriter::add(const checkpoint::Checkpoint &cp, uint64_t weightNum)
{
    const auto &v = cp.bytes;
    size_t archLen = checkpoint::archHeaderBytes();
    if (v.size() < archLen + 8)
        return false;

    Entry e;
    e.instCount = cp.instCount;
    e.weightNum = weightNum;
    e.arch.assign(v.begin(),
                  v.begin() + static_cast<ptrdiff_t>(archLen));

    size_t off = archLen;
    uint64_t pages = rd64(v.data() + off);
    off += 8;
    for (uint64_t p = 0; p < pages; ++p) {
        if (off + 8 + PAGE > v.size())
            return false;
        uint64_t base = rd64(v.data() + off);
        off += 8;
        e.pages.emplace_back(base, poolIndexFor(v.data() + off));
        off += PAGE;
    }
    totalRefs_ += e.pages.size();
    table_.push_back(std::move(e));
    return true;
}

std::vector<uint8_t>
PackWriter::bytes() const
{
    // Offsets: header, table, then per-checkpoint arch blob followed
    // by its page-entry array, then the page pool aligned to 4096.
    size_t n = table_.size();
    uint64_t cursor = (HEADER_U64 + TABLE_U64 * n) * 8;
    std::vector<uint64_t> archOff(n), entryOff(n);
    for (size_t i = 0; i < n; ++i) {
        archOff[i] = cursor;
        cursor += table_[i].arch.size();
        entryOff[i] = cursor;
        cursor += table_[i].pages.size() * 16;
    }
    uint64_t poolOff = (cursor + PAGE - 1) / PAGE * PAGE;

    std::vector<uint8_t> out;
    out.reserve(poolOff + pool_.size());
    put64(out, MAGIC);
    put64(out, VERSION);
    put64(out, n);
    put64(out, weightDen_);
    put64(out, poolOff);
    put64(out, pool_.size() / PAGE);
    for (size_t i = 0; i < n; ++i) {
        put64(out, table_[i].instCount);
        put64(out, table_[i].weightNum);
        put64(out, archOff[i]);
        put64(out, entryOff[i]);
        put64(out, table_[i].pages.size());
    }
    for (const auto &e : table_) {
        out.insert(out.end(), e.arch.begin(), e.arch.end());
        for (const auto &[base, idx] : e.pages) {
            put64(out, base);
            put64(out, idx);
        }
    }
    out.resize(poolOff, 0);
    out.insert(out.end(), pool_.begin(), pool_.end());
    return out;
}

bool
PackWriter::writeFile(const std::string &path) const
{
    auto img = bytes();
    int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0)
        return false;
    bool ok = writeAll(fd, img.data(), img.size());
    ok = (::close(fd) == 0) && ok;
    return ok;
}

PackReader::~PackReader()
{
    close();
}

PackReader &
PackReader::operator=(PackReader &&other) noexcept
{
    if (this != &other) {
        close();
        data_ = other.data_;
        len_ = other.len_;
        fd_ = other.fd_;
        own_ = std::move(other.own_);
        nCheckpoints_ = other.nCheckpoints_;
        weightDen_ = other.weightDen_;
        pagePoolOff_ = other.pagePoolOff_;
        nPoolPages_ = other.nPoolPages_;
        other.data_ = nullptr;
        other.len_ = 0;
        other.fd_ = -1;
        other.nCheckpoints_ = 0;
    }
    return *this;
}

void
PackReader::close()
{
    if (fd_ >= 0) {
        ::munmap(const_cast<uint8_t *>(data_), len_);
        ::close(fd_);
        fd_ = -1;
    }
    data_ = nullptr;
    len_ = 0;
    own_.clear();
    nCheckpoints_ = 0;
}

bool
PackReader::openFile(const std::string &path)
{
    close();
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        return false;
    }
    size_t len = static_cast<size_t>(st.st_size);
    void *p = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
    if (p == MAP_FAILED) {
        ::close(fd);
        return false;
    }
    fd_ = fd;
    data_ = static_cast<const uint8_t *>(p);
    len_ = len;
    if (!parse()) {
        close();
        return false;
    }
    return true;
}

bool
PackReader::openMemory(std::vector<uint8_t> bytes)
{
    close();
    own_ = std::move(bytes);
    data_ = own_.data();
    len_ = own_.size();
    if (!parse()) {
        close();
        return false;
    }
    return true;
}

bool
PackReader::parse()
{
    if (len_ < HEADER_U64 * 8 || rd64(data_) != MAGIC ||
        rd64(data_ + 8) != VERSION)
        return false;
    nCheckpoints_ = rd64(data_ + 16);
    weightDen_ = rd64(data_ + 24);
    pagePoolOff_ = rd64(data_ + 32);
    nPoolPages_ = rd64(data_ + 40);
    // Counts are untrusted: bound them by division so nothing wraps.
    if (nCheckpoints_ > (len_ / 8 - HEADER_U64) / TABLE_U64)
        return false;
    if (pagePoolOff_ > len_ || nPoolPages_ > (len_ - pagePoolOff_) / PAGE)
        return false;
    return true;
}

const uint8_t *
PackReader::tableEntry(size_t i) const
{
    return data_ + (HEADER_U64 + TABLE_U64 * i) * 8;
}

uint64_t
PackReader::weightNum(size_t i) const
{
    return rd64(tableEntry(i) + 8);
}

uint64_t
PackReader::instCount(size_t i) const
{
    return rd64(tableEntry(i));
}

double
PackReader::weight(size_t i) const
{
    return weightDen_ ? static_cast<double>(weightNum(i)) /
                            static_cast<double>(weightDen_)
                      : 0.0;
}

bool
PackReader::restoreInto(size_t i, iss::ArchState &state,
                        mem::PhysMem &mem) const
{
    if (i >= nCheckpoints_)
        return false;
    const uint8_t *te = tableEntry(i);
    uint64_t archOff = rd64(te + 16);
    uint64_t entryOff = rd64(te + 24);
    uint64_t nEntries = rd64(te + 32);
    size_t archLen = checkpoint::archHeaderBytes();
    if (archOff > len_ || archLen > len_ - archOff || entryOff > len_ ||
        nEntries > (len_ - entryOff) / 16)
        return false;
    // Every entry is checked before one is mapped: mapped pool
    // pointers are only dereferenced later, on first touch.
    const uint8_t *entries = data_ + entryOff;
    for (uint64_t e = 0; e < nEntries; ++e) {
        if ((rd64(entries + e * 16) & mem::PhysMem::PAGE_MASK) != 0 ||
            rd64(entries + e * 16 + 8) >= nPoolPages_)
            return false;
    }
    if (!checkpoint::restoreArch(data_ + archOff, archLen, state))
        return false;

    mem.clear();
    for (uint64_t e = 0; e < nEntries; ++e) {
        uint64_t idx = rd64(entries + e * 16 + 8);
        mem.mapPage(rd64(entries + e * 16),
                    data_ + pagePoolOff_ + idx * PAGE);
    }
    return true;
}

std::vector<uint8_t>
packFromGen(const checkpoint::GenResult &gen)
{
    if (gen.checkpoints.empty())
        return {};
    // SimPoint weights are clusterSize / intervalCount; recover the
    // integer numerator so downstream reduction is exact. The
    // whole-run fallback (one checkpoint, weight 1.0) lands on 1/1.
    uint64_t den = gen.simpoints.assignment.size();
    if (den == 0)
        den = 1;
    PackWriter w(den);
    for (const auto &cp : gen.checkpoints) {
        uint64_t num = static_cast<uint64_t>(
            std::llround(cp.weight * static_cast<double>(den)));
        if (!w.add(cp, num))
            return {};
    }
    return w.bytes();
}

} // namespace minjie::sample
