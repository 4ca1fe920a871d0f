#pragma once

#include <iosfwd>
#include <string>

#include "catalog/tree.hpp"
#include "geom/subdivision.hpp"
#include "robust/status.hpp"

namespace robust {

/// Checked text-format loaders for the two untrusted inputs the CLI takes.
/// Every syntactic and semantic defect (truncation, junk tokens, dangling
/// parents, unsorted keys, overlong sizes that would OOM, coordinates past
/// the exactness limit) comes back as a Status — never an assert or UB.

/// Tree file format: first line "N"; then one line per node
/// "<parent|-1> <k> <key_1> ... <key_k>" in id order (node 0 is the root,
/// parents must precede children; keys strictly increasing, < +infinity).
[[nodiscard]] coop::Expected<cat::Tree> load_tree(std::istream& in);
/// load_tree on the file `path`; an unreadable file is INVALID_ARGUMENT.
[[nodiscard]] coop::Expected<cat::Tree> load_tree_file(
    const std::string& path);

/// Subdivision file format: first line "f ymin ymax E"; then one line per
/// edge "lox loy hix hiy min_sep max_sep".  The result passes the full
/// structural validation (separator coverage and order).
[[nodiscard]] coop::Expected<geom::MonotoneSubdivision> load_subdivision(
    std::istream& in);

}  // namespace robust
