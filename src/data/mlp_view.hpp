// MLP input preparation (paper §IV-A): consecutive features are grouped
// and averaged so each dataset matches its MLP input-layer width, which
// raises density (the "MLP sparsity" column of Table I).
#pragma once

#include "data/dataset.hpp"

namespace parsgd {

class ThreadPool;

/// Returns a dataset whose features are grouped to `base.profile.mlp_input`
/// buckets (sparse + dense materializations), sharing labels and profile.
/// Rows are grouped on `pool` (nullptr = the calling thread); the result
/// is the same for every pool.
Dataset make_mlp_dataset(const Dataset& base, ThreadPool* pool = nullptr);

}  // namespace parsgd
