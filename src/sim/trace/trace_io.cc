#include "sim/trace/trace_io.hh"

#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/atomic_file.hh"
#include "core/obs/log.hh"

namespace swcc
{

namespace
{

constexpr std::array<char, 8> kMagic = {
    'S', 'W', 'C', 'C', 'T', 'R', 'C', '1',
};

void
writeU64(std::ostream &os, std::uint64_t value)
{
    std::array<char, 8> bytes;
    for (int i = 0; i < 8; ++i) {
        bytes[static_cast<std::size_t>(i)] =
            static_cast<char>((value >> (8 * i)) & 0xffu);
    }
    os.write(bytes.data(), bytes.size());
}

std::uint64_t
readU64(std::istream &is)
{
    std::array<char, 8> bytes{};
    is.read(bytes.data(), bytes.size());
    if (!is) {
        const std::string what = "truncated trace: expected 8 bytes";
        SWCC_LOG_WARN(what);
        throw std::runtime_error(what);
    }
    std::uint64_t value = 0;
    for (int i = 7; i >= 0; --i) {
        value = (value << 8) |
            static_cast<std::uint8_t>(bytes[static_cast<std::size_t>(i)]);
    }
    return value;
}

RefType
refTypeFromChar(char c, std::size_t line_no)
{
    switch (c) {
      case 'i': return RefType::IFetch;
      case 'l': return RefType::Load;
      case 's': return RefType::Store;
      case 'f': return RefType::Flush;
      default: {
        const std::string what = "bad reference type '" +
            std::string(1, c) + "' on line " + std::to_string(line_no);
        SWCC_LOG_WARN(what);
        throw std::runtime_error(what);
      }
    }
}

/**
 * Parses a full hex address token, rejecting signs, trailing garbage,
 * and overflow — std::stoull would silently accept "1f2zz" (as 0x1f2)
 * and wrap "-1" to 2^64-1. An optional 0x/0X prefix is tolerated.
 */
Addr
parseHexAddr(const std::string &token, std::size_t line_no)
{
    const char *first = token.data();
    const char *last = token.data() + token.size();
    if (last - first > 2 && first[0] == '0' &&
        (first[1] == 'x' || first[1] == 'X')) {
        first += 2;
    }
    Addr value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value, 16);
    if (ec != std::errc{} || ptr != last || first == last) {
        const std::string what = "bad address '" + token +
            "' on line " + std::to_string(line_no) + " (expected hex)";
        SWCC_LOG_WARN(what);
        throw std::runtime_error(what);
    }
    return value;
}

char
refTypeToChar(RefType type)
{
    switch (type) {
      case RefType::IFetch: return 'i';
      case RefType::Load:   return 'l';
      case RefType::Store:  return 's';
      case RefType::Flush:  return 'f';
    }
    return '?';
}

} // namespace

void
writeBinaryTrace(const TraceBuffer &trace, std::ostream &os)
{
    os.write(kMagic.data(), kMagic.size());
    writeU64(os, trace.size());
    for (const TraceEvent &event : trace) {
        writeU64(os, event.addr);
        const std::uint64_t meta =
            static_cast<std::uint64_t>(event.cpu) |
            (static_cast<std::uint64_t>(event.type) << 16);
        writeU64(os, meta);
    }
    if (!os) {
        throw std::runtime_error("failed to write binary trace");
    }
}

TraceBuffer
readBinaryTrace(std::istream &is)
{
    std::array<char, 8> magic{};
    is.read(magic.data(), magic.size());
    if (!is || magic != kMagic) {
        const std::string what = "not a SWCC binary trace (bad magic)";
        SWCC_LOG_WARN(what);
        throw std::runtime_error(what);
    }
    const std::uint64_t count = readU64(is);

    // Bound the header count by what the stream can actually hold (16
    // bytes per event) before reserving: a corrupt or truncated file
    // must raise the truncation error, not a multi-GB allocation.
    constexpr std::uint64_t kBytesPerEvent = 16;
    std::uint64_t reservable = count;
    const auto here = is.tellg();
    if (here != std::istream::pos_type(-1)) {
        is.seekg(0, std::ios::end);
        const auto end = is.tellg();
        is.seekg(here);
        if (end != std::istream::pos_type(-1) && end >= here) {
            const auto remaining =
                static_cast<std::uint64_t>(end - here);
            if (count > remaining / kBytesPerEvent) {
                const std::string what =
                    "truncated trace: header claims " +
                    std::to_string(count) + " events but only " +
                    std::to_string(remaining) + " bytes remain";
                SWCC_LOG_WARN(what);
                throw std::runtime_error(what);
            }
        }
    } else {
        // Unseekable stream: cap the reserve; the event loop below
        // still reports truncation the moment the stream runs dry.
        is.clear();
        reservable = std::min<std::uint64_t>(count, 1u << 20);
    }
    TraceBuffer trace;
    trace.reserve(static_cast<std::size_t>(reservable));
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceEvent event;
        event.addr = readU64(is);
        const std::uint64_t meta = readU64(is);
        event.cpu = static_cast<CpuId>(meta & 0xffffu);
        const auto type_bits = static_cast<std::uint8_t>(meta >> 16);
        if (type_bits > static_cast<std::uint8_t>(RefType::Flush)) {
            const std::string what =
                "bad reference type in binary trace (event " +
                std::to_string(i) + ")";
            SWCC_LOG_WARN(what);
            throw std::runtime_error(what);
        }
        event.type = static_cast<RefType>(type_bits);
        trace.append(event);
    }
    return trace;
}

void
writeTextTrace(const TraceBuffer &trace, std::ostream &os)
{
    os << "# swcc trace: cpu type addr(hex); " << trace.size()
       << " events, " << trace.numCpus() << " cpus\n";
    for (const TraceEvent &event : trace) {
        os << event.cpu << ' ' << refTypeToChar(event.type) << ' '
           << std::hex << event.addr << std::dec << '\n';
    }
    if (!os) {
        throw std::runtime_error("failed to write text trace");
    }
}

TraceBuffer
readTextTrace(std::istream &is)
{
    TraceBuffer trace;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        unsigned cpu = 0;
        std::string type_token;
        std::string addr_token;
        if (!(fields >> cpu >> type_token >> addr_token) ||
            type_token.size() != 1) {
            const std::string what = "malformed trace line " +
                std::to_string(line_no) + ": '" + line + "'";
            SWCC_LOG_WARN(what);
            throw std::runtime_error(what);
        }
        TraceEvent event;
        event.cpu = static_cast<CpuId>(cpu);
        event.type = refTypeFromChar(type_token[0], line_no);
        event.addr = parseHexAddr(addr_token, line_no);
        trace.append(event);
    }
    return trace;
}

void
saveTrace(const TraceBuffer &trace, const std::string &path)
{
    // Atomic (temp + fsync + rename): a run killed mid-save can never
    // leave a truncated trace that a later run mistakes for a complete
    // one.
    const bool binary = path.ends_with(".swcc");
    atomicWriteFile(
        path,
        [&](std::ostream &os) {
            if (binary) {
                writeBinaryTrace(trace, os);
            } else {
                writeTextTrace(trace, os);
            }
        },
        binary);
}

TraceBuffer
loadTrace(const std::string &path)
{
    const bool binary = path.ends_with(".swcc");
    std::ifstream is(path, binary ? std::ios::binary : std::ios::in);
    if (!is) {
        throw std::runtime_error("cannot open " + path + " for reading");
    }
    return binary ? readBinaryTrace(is) : readTextTrace(is);
}

} // namespace swcc
