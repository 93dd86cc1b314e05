/**
 * @file
 * The host-speed probe: a fixed piece of CPU and memory work that
 * depends on nothing in the library, timed between repetitions.
 *
 * On a shared host the same deterministic workload can run 30-60%
 * slower for minutes at a time. Timed next to each repetition, the
 * probe says how fast the host ran then, and perfbench rescales host
 * times to a reference probe time. No change to the program can move
 * the probe.
 *
 * It runs in a forked child so its tables never count towards the
 * benchmark's peak resident set.
 */

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>

#include "bench.hh"

namespace perfbench {

namespace {

/** Random read-modify-write steps over a table of @p words 64-bit
 *  words; returns the seconds taken. */
double
tableWalkS(std::uint64_t *table, std::size_t words, std::uint32_t steps)
{
    std::uint64_t x = 88172645463325252ull, acc = 0;
    for (std::size_t i = 0; i < words; ++i)
        table[i] = i;
    const double t0 = nowS();
    for (std::uint32_t i = 0; i < steps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &slot = table[x % words];
        acc += slot;
        slot = acc ^ i;
        if (acc & 1)
            acc += x >> 3;
    }
    const double elapsed = nowS() - t0;
    table[0] = acc;
    return elapsed;
}

/** The probe proper: walks sized for L1, L2, the last-level cache
 *  and memory. Their sum tracks the workloads' slow phases about one
 *  for one; each walk alone tracks them too little or too much. */
double
probeWorkS()
{
    constexpr std::size_t kMaxWords = std::size_t{1} << 23;
    void *mem = mmap(nullptr, kMaxWords * sizeof(std::uint64_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (mem == MAP_FAILED)
        return -1.0;
    auto *table = static_cast<std::uint64_t *>(mem);
    return tableWalkS(table, 512, 12'000'000) +
        tableWalkS(table, 32768, 8'000'000) +
        tableWalkS(table, std::size_t{1} << 20, 3'000'000) +
        tableWalkS(table, kMaxWords, 1'500'000);
}

} // namespace

double
hostProbeS()
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("host probe: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        throw std::runtime_error("host probe: fork failed");
    }
    if (pid == 0) {
        close(fds[0]);
        const double seconds = probeWorkS();
        const bool sent =
            write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double seconds = -1.0;
    const bool got = read(fds[0], &seconds, sizeof seconds) ==
        static_cast<ssize_t>(sizeof seconds);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || seconds <= 0.0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("host probe: child failed");
    return seconds;
}

} // namespace perfbench
