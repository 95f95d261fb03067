/**
 * @file
 * A small named-statistics container used for dumping and test inspection.
 *
 * Components keep their counters in typed structs for speed; StatSet is the
 * uniform export format (name -> double) used by the experiment runner,
 * obs_report's JSON report, and the tests.
 */

#ifndef MCSIM_SIM_STATS_HH
#define MCSIM_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace mcsim
{

/** An ordered collection of named scalar statistics. */
class StatSet
{
  public:
    /** Set (or overwrite) a statistic. */
    void
    set(const std::string &name, double value)
    {
        values[name] = value;
    }

    /** Add @p delta to a statistic, creating it at zero if absent. */
    void
    add(const std::string &name, double delta)
    {
        values[name] += delta;
    }

    /** Fetch a statistic; returns 0 when absent. */
    double
    get(const std::string &name) const
    {
        auto it = values.find(name);
        return it == values.end() ? 0.0 : it->second;
    }

    /** True when the statistic has been recorded. */
    bool has(const std::string &name) const { return values.count(name) > 0; }

    /** Merge another set into this one, summing shared names. */
    void
    merge(const StatSet &other)
    {
        for (const auto &[name, value] : other.values)
            values[name] += value;
    }

    /** Number of recorded statistics. */
    std::size_t size() const { return values.size(); }

    /** Iterate in name order. */
    auto begin() const { return values.begin(); }
    auto end() const { return values.end(); }

    /** Human-readable dump, one "name = value" line per statistic. */
    void
    dump(std::ostream &os, const std::string &prefix = "") const
    {
        for (const auto &[name, value] : values)
            os << prefix << name << " = " << value << "\n";
    }

  private:
    std::map<std::string, double> values;
};

} // namespace mcsim

#endif // MCSIM_SIM_STATS_HH
