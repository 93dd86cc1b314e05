#include "campaign/files.hh"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace lf {

namespace fs = std::filesystem;

std::string
readFileText(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return path + ": cannot open for reading";
    std::ostringstream buf;
    buf << is.rdbuf();
    if (is.bad())
        return path + ": read failed";
    out = buf.str();
    return "";
}

std::string
writeFileAtomic(const std::string &path, const std::string &content)
{
    const fs::path target(path);
    std::error_code ec;
    if (target.has_parent_path()) {
        fs::create_directories(target.parent_path(), ec);
        if (ec) {
            return path + ": cannot create parent directory (" +
                ec.message() + ")";
        }
    }
    // The temp name is unique per process and per call, so writers of
    // one path (shard processes, or threads of one process) never
    // share a temporary file: each rename lands one whole body.
    static std::atomic<std::uint64_t> tmpSerial{0};
    const fs::path tmp =
        target.parent_path() /
        (target.filename().string() + ".tmp." +
         std::to_string(static_cast<long long>(getpid())) + "." +
         std::to_string(tmpSerial.fetch_add(1)));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return tmp.string() + ": cannot open for writing";
        os << content;
        os.flush();
        if (!os.good())
            return tmp.string() + ": write failed";
    }
    fs::rename(tmp, target, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return path + ": rename into place failed";
    }
    return "";
}

bool
pathExists(const std::string &path)
{
    std::error_code ec;
    return fs::exists(path, ec);
}

} // namespace lf
