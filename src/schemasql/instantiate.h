#ifndef DYNVIEW_SCHEMASQL_INSTANTIATE_H_
#define DYNVIEW_SCHEMASQL_INSTANTIATE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "sql/ast.h"
#include "sql/binder.h"

namespace dynview {

/// One grounding of a higher-order query: the labels chosen for each schema
/// variable, and the resulting first-order query with all schema variables
/// substituted away (declarations removed, label references replaced by
/// constants, value references replaced by string literals).
struct InstantiatedQuery {
  /// Lowercased schema-variable name → chosen label.
  std::map<std::string, std::string> labels;
  std::unique_ptr<SelectStmt> query;
};

/// One (possibly partial) grounding under construction: variable labels plus
/// the database each relation variable ranged over (a tuple reference `R T`
/// must resolve against that database, not the default one).
struct Grounding {
  std::map<std::string, std::string> labels;
  std::map<std::string, std::string> relvar_db;  // lowercased var → db name.
};

/// How one InstantiateSchemaVars call decided its groundings (the
/// `groundings.*` counters): enumerated = pruned_notfound +
/// pruned_predicate + the number of queries returned.
struct GroundingCounts {
  /// Groundings produced; a prefix dropped by a label conjunct before later
  /// variables were grounded counts once.
  uint64_t enumerated = 0;
  /// Discarded because a variable-derived relation resolved kNotFound.
  uint64_t pruned_notfound = 0;
  /// Dropped by a label conjunct.
  uint64_t pruned_predicate = 0;
};

/// Grounds the schema variables of a bound single-branch query `stmt`
/// against `catalog`, in FROM-clause declaration order:
///   * a database variable ranges over all database names,
///   * a relation variable over the relations of its (grounded) database,
///   * an attribute variable over the attributes of its (grounded) relation.
/// This is the standard SchemaSQL grounding semantics; evaluating each
/// result and taking the bag union evaluates the higher-order query.
///
/// A grounding whose database/relation does not exist contributes an empty
/// range (not an error), matching "ranges over all X in Y" semantics.
///
/// Label conjuncts restrict the ranges: a top-level WHERE conjunct whose
/// only references are schema variables (`R = 'coa'`) is evaluated, by the
/// engine's evaluator, as soon as its variables are grounded, and a
/// grounding it makes False or Unknown is dropped before any later variable
/// is grounded. Its first-order query would evaluate to no rows, so the bag
/// union is unchanged; a dropped grounding is not a source of the query (it
/// is never resolved, failpoint-checked or evaluated). A conjunct that
/// errors keeps its grounding. When the conjuncts drop every grounding, the
/// first feasible grounding of the unrestricted enumeration is returned, so
/// the empty answer keeps its output schema.
///
/// When `counts` is non-null, it receives how the groundings were decided.
Result<std::vector<InstantiatedQuery>> InstantiateSchemaVars(
    const SelectStmt& stmt, const BoundQuery& bq, const CatalogReader& catalog,
    const std::string& default_db, GroundingCounts* counts = nullptr);

/// Substitutes one grounding into a clone of `stmt` (exposed for testing and
/// for the translation machinery): removes schema-variable declarations,
/// replaces grounded label positions with constants, and replaces value
/// references to schema variables with string literals. Select-list items
/// that are bare references gain their name as an alias first, so output
/// column names survive substitution.
std::unique_ptr<SelectStmt> SubstituteLabels(const SelectStmt& stmt,
                                             const BoundQuery& bq,
                                             const Grounding& grounding);

}  // namespace dynview

#endif  // DYNVIEW_SCHEMASQL_INSTANTIATE_H_
