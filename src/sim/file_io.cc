#include "sim/file_io.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mask {

std::uint64_t
fnv1a64(std::string_view data)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

bool
writeAll(int fd, const char *data, std::size_t len) noexcept
{
    std::size_t done = 0;
    while (done < len) {
        const ::ssize_t n = ::write(fd, data + done, len - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out, std::size_t offset)
{
    out.clear();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    // Size the buffer from fstat so a multi-megabyte snapshot lands in
    // one read; the spare byte lets that read see EOF (or growth).
    struct ::stat st = {};
    std::size_t size = 0;
    if (::fstat(fd, &st) == 0 &&
        static_cast<std::size_t>(st.st_size) > offset)
        size = static_cast<std::size_t>(st.st_size) - offset;
    out.resize(size + 1);
    std::size_t done = 0;
    bool ok = true;
    for (;;) {
        if (done == out.size())
            out.resize(2 * out.size());
        const ::ssize_t n =
            ::pread(fd, out.data() + done, out.size() - done,
                    static_cast<::off_t>(offset + done));
        if (n > 0) {
            done += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        ok = n == 0;
        break;
    }
    ::close(fd);
    out.resize(done);
    return ok;
}

void
writeFileAtomic(const std::string &path, std::string_view content)
{
    // Unique per process and per call: concurrent publishers of one
    // path must never share (and truncate) each other's tmp file.
    static std::atomic<unsigned> seq{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(seq.fetch_add(1));
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        throw std::runtime_error("cannot write " + tmp + ": " +
                                 std::strerror(errno));
    const bool wrote = writeAll(fd, content.data(), content.size());
    if (::close(fd) != 0 || !wrote) {
        const std::string why = std::strerror(errno);
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot write " + tmp + ": " + why);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string why = std::strerror(errno);
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot publish " + path + ": " + why);
    }
}

} // namespace mask
