#include "sample/store.h"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "checkpoint/generator.h"

namespace minjie::sample {

namespace {

using namespace checkpoint::pack;
constexpr size_t PAGE = mem::PhysMem::PAGE_SIZE;

uint64_t
rd64(const uint8_t *p)
{
    uint64_t x;
    std::memcpy(&x, p, 8);
    return x;
}

} // namespace

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
        uint64_t base = rd64(entries + e * 16);
        if ((base & mem::PhysMem::PAGE_MASK) != 0 ||
            !mem.contains(base, PAGE) ||
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
    return gen.pack.bytes();
}

} // namespace minjie::sample
