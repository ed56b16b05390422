/**
 * @file
 * The one file layer under every piece of persisted sweep state:
 * checkpoints and their fatal-signal flush, crash-repro files, warm
 * snapshots, dist leases and shards, and the results journal.
 *
 * - writeAll() is noexcept and allocation-free, so the fatal-signal
 *   handlers may call it.
 * - readFile() reads a whole file, or its tail from a byte offset.
 * - writeFileAtomic() publishes through a tmp file unique to the
 *   calling process and call, then rename(). Readers never see a
 *   half-written file. Concurrent writers of one path (two workers
 *   checkpointing the same job into a shared directory) each publish
 *   a complete image, and the last rename wins.
 * - fnv1a64() is the checksum and name hash for all of them.
 */

#ifndef MASK_SIM_FILE_IO_HH
#define MASK_SIM_FILE_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mask {

/** FNV-1a 64-bit hash (snapshot checksums, lease names). */
std::uint64_t fnv1a64(std::string_view data);

/**
 * Write all @p len bytes of @p data to @p fd, retrying short writes
 * and EINTR. Async-signal-safe. Returns false on a write error.
 */
bool writeAll(int fd, const char *data, std::size_t len) noexcept;

/**
 * Replace @p out with the bytes of @p path from @p offset to EOF.
 * Returns false when the file cannot be opened or a read fails.
 */
bool readFile(const std::string &path, std::string &out,
              std::size_t offset = 0);

/** Publish @p content at @p path via tmp + rename (throws
 *  std::runtime_error and removes the tmp file on failure). */
void writeFileAtomic(const std::string &path, std::string_view content);

} // namespace mask

#endif // MASK_SIM_FILE_IO_HH
