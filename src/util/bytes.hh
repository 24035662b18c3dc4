/**
 * @file
 * The one little-endian byte codec every serialized format in the
 * repository shares: packed traces (isa/packed_trace), sweep result
 * payloads, worker pipe records and checkpoint journals
 * (driver/procpool). Writers append to a byte vector; ByteReader is a
 * bounds-checked cursor that reports a short read through a handler
 * the format supplies, so each format raises its own typed error.
 */

#ifndef CRYPTARCH_UTIL_BYTES_HH
#define CRYPTARCH_UTIL_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace cryptarch::util
{

/** Append the low @p n bytes of @p v, least significant first. */
inline void
putLE(std::vector<uint8_t> &out, uint64_t v, unsigned n)
{
    for (unsigned i = 0; i < n; i++)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline void putU8(std::vector<uint8_t> &out, uint8_t v) { out.push_back(v); }
inline void putU16(std::vector<uint8_t> &out, uint16_t v) { putLE(out, v, 2); }
inline void putU32(std::vector<uint8_t> &out, uint32_t v) { putLE(out, v, 4); }
inline void putU64(std::vector<uint8_t> &out, uint64_t v) { putLE(out, v, 8); }

/** A u32 byte count, then the bytes. */
inline void
putString(std::vector<uint8_t> &out, const std::string &s)
{
    putU32(out, static_cast<uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

/**
 * Called when a read of @p need bytes of field @p what finds only
 * @p left. Must throw the format's typed error; if it returns, the
 * reader throws std::out_of_range instead.
 */
using ShortReadHandler = void (*)(const char *what, size_t need,
                                  size_t left);

/** Bounds-checked sequential little-endian reader. */
class ByteReader
{
  public:
    ByteReader(std::span<const uint8_t> bytes, ShortReadHandler onShort)
        : s(bytes), onShort(onShort)
    {
    }

    uint8_t u8(const char *what) { return get<uint8_t>(what); }
    uint16_t u16(const char *what) { return get<uint16_t>(what); }
    uint32_t u32(const char *what) { return get<uint32_t>(what); }
    uint64_t u64(const char *what) { return get<uint64_t>(what); }

    /** A putString() field. */
    std::string
    string(const char *what)
    {
        const auto b = bytes(u32(what), what);
        return {reinterpret_cast<const char *>(b.data()), b.size()};
    }

    /** The next @p n bytes, as a view into the input. */
    std::span<const uint8_t>
    bytes(size_t n, const char *what)
    {
        need(n, what);
        auto out = s.subspan(pos, n);
        pos += n;
        return out;
    }

    size_t remaining() const { return s.size() - pos; }
    bool done() const { return pos == s.size(); }

  private:
    template <class T>
    T
    get(const char *what)
    {
        need(sizeof(T), what);
        uint64_t v = 0;
        for (size_t i = 0; i < sizeof(T); i++)
            v |= static_cast<uint64_t>(s[pos + i]) << (8 * i);
        pos += sizeof(T);
        return static_cast<T>(v);
    }

    void
    need(size_t n, const char *what)
    {
        if (remaining() >= n)
            return;
        onShort(what, n, remaining());
        throw std::out_of_range(std::string("short read of ") + what);
    }

    std::span<const uint8_t> s;
    ShortReadHandler onShort;
    size_t pos = 0;
};

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_BYTES_HH
