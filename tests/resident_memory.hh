/**
 * @file
 * The anonymous memory this process has resident, for tests that
 * check a structure only costs host memory for what it writes.
 */

#ifndef POMTLB_TESTS_RESIDENT_MEMORY_HH
#define POMTLB_TESTS_RESIDENT_MEMORY_HH

#include <cstdio>

namespace pomtlb
{

/**
 * Resident anonymous memory of this process in kB, or -1 when it
 * cannot be read. Read from smaps_rollup, which walks the page tables
 * and is exact; VmRSS in /proc/self/status is a per-CPU batched
 * counter that may lag by hundreds of kB. Only the `Anonymous:` line
 * is used: `Rss:` also counts file-backed pages such as the test
 * binary's own text, which the kernel faults in 64 kB at a time
 * (fault-around) the first time new code runs.
 */
inline long
residentKb()
{
#ifdef __linux__
    std::FILE *file = std::fopen("/proc/self/smaps_rollup", "r");
    if (!file)
        return -1;
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), file)) {
        if (std::sscanf(line, "Anonymous: %ld kB", &kb) == 1)
            break;
    }
    std::fclose(file);
    return kb;
#else
    return -1;
#endif
}

} // namespace pomtlb

#endif // POMTLB_TESTS_RESIDENT_MEMORY_HH
