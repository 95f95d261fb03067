/**
 * @file
 * Shared pieces of the perfbench program: sample summaries and the
 * isolated per-layer cases (micro.cc).
 */

#ifndef MCSIM_PERFBENCH_PERFBENCH_HH
#define MCSIM_PERFBENCH_PERFBENCH_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Median and quartiles of a sample, as Python's
 *  statistics.quantiles(samples, n=4) computes them. */
struct Summary
{
    double median = 0;
    double q1 = 0;
    double q3 = 0;
    std::size_t n = 0;
};

inline Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    if (samples.size() == 1) {
        s.median = s.q1 = s.q3 = samples[0];
        return s;
    }
    // The "exclusive" method: positions i * (n + 1) / 4, interpolated.
    const long n = static_cast<long>(samples.size());
    auto quartile = [&](long i) {
        const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
        const long delta = i * (n + 1) - j * 4;
        return (samples[j - 1] * static_cast<double>(4 - delta) +
                samples[j] * static_cast<double>(delta)) /
               4.0;
    };
    s.q1 = quartile(1);
    s.median = quartile(2);
    s.q3 = quartile(3);
    return s;
}

/** One isolated per-layer case: host nanoseconds per operation. */
struct MicroResult
{
    std::string name;
    Summary ns;
};

/**
 * Run every isolated case @p repetitions times with inputs drawn from
 * @p seed. Throws std::runtime_error when a case's own output check
 * fails (a lost message, a hit that missed).
 */
std::vector<MicroResult> runMicroCases(std::uint64_t seed,
                                       unsigned repetitions);

} // namespace perfbench

#endif // MCSIM_PERFBENCH_PERFBENCH_HH
