// PatchGather: gathers an arbitrary box of a DMDA's global vector into a
// rank-local array.
//
// Multigrid inter-grid transfers need values from the *other* level's
// decomposition: prolongation reads a patch of the coarse vector around
// this rank's fine box, restriction reads a patch of the fine vector
// around this rank's coarse box. Those patches generally span several
// remote ranks, so each gather is a genuine nonuniform scatter — built
// once per level pair on top of VecScatter (and therefore driven by the
// same hand-tuned / datatype-baseline / datatype-optimized backends the
// paper compares).
//
// Planning is collective, and each rank plans from its own patch only: it
// lists its patch's global indices row by row (DMDA::append_global_indices)
// and hands them to VecScatter::gather_sparse, whose NBX exchange tells
// each owner what it serves. The one replicated datum is every rank's
// patch volume (one allgathered Index each), which sizes the gathered
// vector's layout. No rank lists another rank's patch, and the plan equals
// the one replicated index sets over all patches would give.
#pragma once

#include <memory>

#include "petsckit/dmda.hpp"
#include "petsckit/scatter.hpp"

namespace nncomm::pk {

class PatchGather {
public:
    /// `patch` is this rank's requested box in `source`'s grid coordinates
    /// (already clamped to the domain; may be empty on some ranks only if
    /// volume stays >= 0). dof must be 1.
    PatchGather(const DMDA& source, const GridBox& patch);

    /// Gathers the patch values from `src` (layout = source DMDA's global
    /// layout). Collective.
    void gather(const Vec& src, ScatterBackend backend);

    const GridBox& patch() const { return patch_; }
    /// The gathered values: patch().volume() doubles, x fastest, then y,
    /// then z.
    std::span<const double> values() const { return dest_.local(); }

    /// The scatter that runs the gather (per-peer traffic introspection).
    const VecScatter& scatter() const { return *scatter_; }

private:
    GridBox patch_;
    std::unique_ptr<VecScatter> scatter_;
    Vec dest_;
};

}  // namespace nncomm::pk
