#include "sample/store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "checkpoint/generator.h"
#include "common/bytes.h"

namespace minjie::sample {

namespace {

using namespace checkpoint::pack;
constexpr size_t PAGE = mem::PhysMem::PAGE_SIZE;

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
        owner_ = std::move(other.owner_);
        nCheckpoints_ = other.nCheckpoints_;
        weightDen_ = other.weightDen_;
        pagePoolOff_ = other.pagePoolOff_;
        nPoolPages_ = other.nPoolPages_;
        other.data_ = nullptr;
        other.len_ = 0;
        other.nCheckpoints_ = 0;
    }
    return *this;
}

void
PackReader::close()
{
    owner_.reset();
    data_ = nullptr;
    len_ = 0;
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
    ::close(fd); // the mapping stays valid without it
    if (p == MAP_FAILED)
        return false;
    owner_ = std::shared_ptr<const void>(
        p, [len](const void *q) { ::munmap(const_cast<void *>(q), len); });
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
    auto buf = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    data_ = buf->data();
    len_ = buf->size();
    owner_ = std::move(buf);
    if (!parse()) {
        close();
        return false;
    }
    return true;
}

bool
PackReader::parse()
{
    ByteReader r(data_, len_);
    if (r.u64() != MAGIC || r.u64() != VERSION)
        return false;
    nCheckpoints_ = r.u64();
    weightDen_ = r.u64();
    pagePoolOff_ = r.u64();
    nPoolPages_ = r.u64();
    // Counts are untrusted: bound them by division so nothing wraps.
    if (!r.ok() || nCheckpoints_ > r.remaining() / (TABLE_U64 * 8))
        return false;
    r.seek(pagePoolOff_);
    return r.ok() && nPoolPages_ <= r.remaining() / PAGE;
}

uint64_t
PackReader::tableField(size_t i, size_t field) const
{
    // parse() checked that the table fits; an index past it reads 0.
    ByteReader r(data_, len_);
    r.seek((HEADER_U64 + TABLE_U64 * i + field) * 8);
    return r.u64();
}

uint64_t
PackReader::weightNum(size_t i) const
{
    return tableField(i, 1);
}

uint64_t
PackReader::instCount(size_t i) const
{
    return tableField(i, 0);
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
    size_t archLen = checkpoint::archHeaderBytes();
    ByteReader arch(data_, len_);
    arch.seek(tableField(i, 2));
    const uint8_t *archBlob = arch.span(archLen);
    ByteReader entries(data_, len_);
    entries.seek(tableField(i, 3));
    uint64_t nEntries = tableField(i, 4);
    if (!archBlob || !entries.ok() || nEntries > entries.remaining() / 16)
        return false;
    // Every entry is checked before one is mapped: mapped pool
    // pointers are only dereferenced later, on first touch.
    const size_t first = entries.pos();
    for (uint64_t e = 0; e < nEntries; ++e) {
        uint64_t base = entries.u64();
        if ((base & mem::PhysMem::PAGE_MASK) != 0 ||
            !mem.contains(base, PAGE) || entries.u64() >= nPoolPages_)
            return false;
    }
    if (!checkpoint::restoreArch(archBlob, archLen, state))
        return false;

    mem.clear();
    entries.seek(first);
    for (uint64_t e = 0; e < nEntries; ++e) {
        uint64_t base = entries.u64();
        mem.map(base, data_ + pagePoolOff_ + entries.u64() * PAGE, PAGE,
                owner_);
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
