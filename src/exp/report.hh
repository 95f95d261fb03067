/**
 * @file
 * The paper's tables and figures, rendered from a results document.
 *
 * Each paper grid (fig2, fig4..fig9, table2, tables3_6) is the set of
 * points one figure or table reads. paperReport() finds every point it
 * needs by SweepPoint::id() among the grid's job records of an
 * "mcsim-sweep-v1" document and prints the rows from their metrics, so
 * nothing is re-run: a live sweep, a journal merge and the committed
 * results/BENCH_sweep.json all print the same text. The scale comes
 * from the job records.
 */

#ifndef MCSIM_EXP_REPORT_HH
#define MCSIM_EXP_REPORT_HH

#include <string>

#include "exp/grid.hh"
#include "exp/json.hh"

namespace mcsim::exp
{

/** Cache-size label: "16K" / "64K" at full scale, otherwise the scaled
 *  size and the paper size it stands for, e.g. "8K (16K-eq)". */
std::string cacheLabel(Scale scale, bool big_cache);

/**
 * Every paper grid of @p doc, in document order, one blank line between
 * blocks; quick and trace-quick render nothing. A grid whose job
 * records miss a point the table needs, or hold it failed, renders one
 * line naming the grid and the point instead of its tables.
 */
std::string paperReport(const Json &doc);

} // namespace mcsim::exp

#endif // MCSIM_EXP_REPORT_HH
