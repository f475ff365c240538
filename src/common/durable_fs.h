#ifndef TIP_COMMON_DURABLE_FS_H_
#define TIP_COMMON_DURABLE_FS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// The filesystem discipline durable state depends on, in one place.
///
/// On POSIX filesystems an atomic rename makes the *contents* of the
/// new file visible under the destination name, but the rename itself
/// lives in the parent directory's metadata — until the directory is
/// fsynced, a power cut can roll the rename back (ext4 and XFS both
/// do this). Every create/rename of a durable file must therefore be
/// followed by FsyncDir on its parent, and the helpers here exist so
/// the snapshot, checkpoint and WAL paths cannot quietly forget.
namespace tip::fs {

/// fsyncs the directory `dir` itself (not its contents). NotFound if
/// the directory cannot be opened, Internal if fsync fails.
Status FsyncDir(const std::string& dir);

/// The parent directory of `path` ("." when `path` has no slash).
std::string ParentDir(std::string_view path);

/// Creates `dir` if it does not exist (one level, not mkdir -p) and
/// fsyncs its parent so the creation itself is durable. OK if `dir`
/// already exists and is a directory.
Status EnsureDir(const std::string& dir);

/// Reads a whole file. NotFound only when the file does not exist
/// (ENOENT); any other open failure or a mid-read I/O error is
/// Internal, never a short result — recovery callers rely on the
/// distinction to tell "fresh state" from "state we failed to read".
Result<std::string> ReadFile(const std::string& path);

/// Writes `bytes` crash-safely over `path`: <path>.tmp + fsync +
/// atomic rename + parent-directory fsync. `fault_prefix` names the
/// injection points exercised along the way: <prefix>.open,
/// <prefix>.write, <prefix>.fsync, <prefix>.close, <prefix>.rename,
/// <prefix>.dirsync.
Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       const std::string& fault_prefix);

/// The same for a file given as consecutive pieces, written in order,
/// so a large file need not first be joined into one buffer.
Status AtomicWriteFile(const std::string& path,
                       const std::vector<std::string_view>& pieces,
                       const std::string& fault_prefix);

}  // namespace tip::fs

#endif  // TIP_COMMON_DURABLE_FS_H_
