#pragma once
// Plain-text dataset serialization.
//
// Format ("multihit-dataset v1"): a header with dimensions, planted
// combinations, then one sparse line per set bit ("t <gene> <sample>" for
// tumor, "n <gene> <sample>" for normal). Human-diffable and stable across
// platforms; mutation matrices are sparse enough that this beats a binary
// dump for inspectability at negligible cost.

#include <iosfwd>
#include <string>

#include "data/dataset.hpp"

namespace multihit {

/// Serializes `data` to `out`. Throws std::ios_base::failure on I/O error.
void write_dataset(std::ostream& out, const Dataset& data);

/// Parses a dataset; throws std::runtime_error on malformed input, including
/// a header count above UINT32_MAX or a genes x samples matrix beyond 2^28
/// words (2 GiB), both rejected before anything is allocated.
Dataset read_dataset(std::istream& in);

/// File-path conveniences.
void save_dataset(const std::string& path, const Dataset& data);
Dataset load_dataset(const std::string& path);

}  // namespace multihit
