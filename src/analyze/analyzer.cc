#include "analyze/analyzer.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "common/str_util.h"
#include "core/containment.h"
#include "core/implication.h"
#include "core/normalize.h"
#include "core/usability.h"
#include "observe/metrics.h"
#include "schemasql/instantiate.h"
#include "sql/parser.h"

namespace dynview {

const std::vector<CheckInfo>& CheckCatalog() {
  static const std::vector<CheckInfo> kChecks = {
      {"DV001", "unbound-schema-variable", "Sec. 3.1", Severity::kError,
       "a declared variable is unbound, ill-typed, or never used, or the "
       "view body falls outside the Sec. 5 source fragment"},
      {"DV002", "higher-order-view-body", "Def. 3.1", Severity::kError,
       "a dynamic view's body declares schema variables; Def. 3.1 requires "
       "a first-order body under a data-dependent output schema"},
      {"DV003", "pivot-multiplicity-loss", "Sec. 4.3", Severity::kWarning,
       "an attribute-variable pivot loses duplicate multiplicities under "
       "multiset semantics"},
      {"DV004", "usability-precheck", "Thm. 5.2/5.4", Severity::kWarning,
       "the view (or no registered source) passes the usability test for "
       "the query shape it must serve"},
      {"DV005", "unsatisfiable-predicate", "Thm. 5.2 cond. 3",
       Severity::kWarning,
       "the WHERE conjunction is contradictory under the condition closure; "
       "the result is always empty"},
      {"DV006", "dead-branch-or-empty-grounding", "Sec. 3.1 / Def. 4.1",
       Severity::kWarning,
       "a UNION branch is subsumed by an earlier branch, a scanned table is "
       "absent from the snapshot, or a schema variable grounds to nothing"},
      {"DV007", "stale-materialization-fence", "Sec. 6", Severity::kWarning,
       "the view's materialization predates a commit to a source database; "
       "queries fence it off and fall back"},
      {"DV100", "duplicate-view", "Def. 4.1", Severity::kWarning,
       "two registered view definitions are proved set-equivalent; the "
       "workload maintains the same source twice"},
      {"DV101", "subsumed-view", "Def. 4.1", Severity::kWarning,
       "a registered view definition is proved contained in another; the "
       "pair is a merge candidate"},
      {"DV102", "shadowed-materialization", "Sec. 6", Severity::kWarning,
       "a fenced materialization is stale against the audited snapshot, so "
       "every query falls back past it — dead weight until rebuilt"},
      {"DV103", "unused-source-table", "Fig. 6", Severity::kNote,
       "a table in a workload-referenced database has no reachable "
       "view/query path: nothing reads it and no materialization targets "
       "it"},
  };
  return kChecks;
}

namespace {

Diagnostic Make(const char* code, Severity severity, SourceSpan span,
                std::string message, std::string fix_hint = "") {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.span = span;
  d.message = std::move(message);
  d.fix_hint = std::move(fix_hint);
  for (const CheckInfo& c : CheckCatalog()) {
    if (d.code == c.code) {
      d.anchor = c.anchor;
      break;
    }
  }
  return d;
}

Diagnostic MakeSyntax(const Status& status) {
  Diagnostic d;
  d.code = "DV000";
  d.severity = Severity::kError;
  d.message = "syntax error: " + status.message();
  d.anchor = "Sec. 3.1";
  return d;
}

/// Collects every variable *use* in an expression tree: kVarRef names,
/// kColumnRef qualifiers (a tuple-variable use) and variable column labels.
/// kStar counts as using everything (sets `star`).
void CollectExprUses(const Expr& e, std::set<std::string>* used, bool* star) {
  switch (e.kind) {
    case ExprKind::kVarRef:
      used->insert(ToLower(e.var_name));
      break;
    case ExprKind::kColumnRef:
      used->insert(ToLower(e.qualifier));
      if (e.column.is_variable) used->insert(ToLower(e.column.text));
      break;
    case ExprKind::kStar:
      *star = true;
      break;
    default:
      break;
  }
  if (e.left != nullptr) CollectExprUses(*e.left, used, star);
  if (e.right != nullptr) CollectExprUses(*e.right, used, star);
}

/// Variable uses across one bound SELECT branch (select/where/group/having/
/// order plus the label positions and anchors of the FROM clause itself).
void CollectBranchUses(const SelectStmt& stmt, std::set<std::string>* used,
                       bool* star) {
  for (const SelectItem& item : stmt.select_list) {
    if (item.expr != nullptr) CollectExprUses(*item.expr, used, star);
  }
  if (stmt.where != nullptr) CollectExprUses(*stmt.where, used, star);
  for (const auto& g : stmt.group_by) CollectExprUses(*g, used, star);
  if (stmt.having != nullptr) CollectExprUses(*stmt.having, used, star);
  for (const OrderItem& o : stmt.order_by) {
    if (o.expr != nullptr) CollectExprUses(*o.expr, used, star);
  }
  for (const FromItem& f : stmt.from_items) {
    if (f.db.is_variable) used->insert(ToLower(f.db.text));
    if (f.rel.is_variable) used->insert(ToLower(f.rel.text));
    if (f.attr.is_variable) used->insert(ToLower(f.attr.text));
    if (f.kind == FromItemKind::kDomainVar) used->insert(ToLower(f.tuple));
  }
}

/// DV001 (warning half): declared variables never referenced anywhere. An
/// unused schema variable is a live hazard — grounding still enumerates its
/// range, multiplying the bag-union contribution.
void CheckUnusedVariables(const std::string& sql, const SelectStmt& branch,
                          const BoundQuery& bq,
                          const std::set<std::string>& extra_uses,
                          std::vector<Diagnostic>* out) {
  std::set<std::string> used = extra_uses;
  bool star = false;
  CollectBranchUses(branch, &used, &star);
  if (star) return;  // `select *` pulls every declared variable.
  for (const FromItem& f : branch.from_items) {
    const std::string var = ToLower(f.var);
    if (used.count(var) > 0) continue;
    const BoundVariable* bv = bq.Find(var);
    const char* cls = bv != nullptr ? VarClassName(bv->cls) : "variable";
    std::string hint = "drop the declaration or reference the variable";
    if (bv != nullptr && IsSchemaVarClass(bv->cls)) {
      hint +=
          "; grounding still ranges over the unused variable and multiplies "
          "the bag-union result by its range";
    }
    out->push_back(Make("DV001", Severity::kWarning, SpanOfWord(sql, f.var),
                        std::string(cls) + " variable '" + f.var +
                            "' is declared but never used",
                        hint));
  }
}

/// DV001 (error half): bare variable references that are neither declared in
/// FROM nor a column of a constant table in scope. The binder defers this
/// resolution to evaluation time (expr_eval's column shorthand); the
/// analyzer rejects it statically. Skipped when any FROM item ranges over a
/// schema variable — a grounded relation might supply the column.
void CheckUnboundRefs(const std::string& sql, const SelectStmt& branch,
                      const BoundQuery& bq, const CatalogReader& catalog,
                      const std::string& default_db,
                      std::vector<Diagnostic>* out) {
  for (const FromItem& f : branch.from_items) {
    if (f.kind != FromItemKind::kTupleVar &&
        f.kind != FromItemKind::kDomainVar) {
      return;
    }
    if (f.kind == FromItemKind::kTupleVar &&
        (f.rel.is_variable || f.db.is_variable)) {
      return;
    }
  }
  std::vector<std::string> refs;
  for (const SelectItem& item : branch.select_list) {
    if (item.expr != nullptr) item.expr->CollectVarRefs(&refs);
  }
  if (branch.where != nullptr) branch.where->CollectVarRefs(&refs);
  for (const auto& g : branch.group_by) g->CollectVarRefs(&refs);
  if (branch.having != nullptr) branch.having->CollectVarRefs(&refs);
  for (const OrderItem& o : branch.order_by) {
    if (o.expr != nullptr) o.expr->CollectVarRefs(&refs);
  }
  std::set<std::string> reported;
  for (const std::string& name : refs) {
    const std::string key = ToLower(name);
    if (reported.count(key) > 0) continue;
    if (bq.Find(key) != nullptr) continue;
    bool is_column = false;
    for (const FromItem& f : branch.from_items) {
      if (f.kind != FromItemKind::kTupleVar) continue;
      const std::string db = f.db.empty() ? default_db : f.db.text;
      Result<const Table*> t =
          catalog.ResolveTable(ToLower(db), ToLower(f.rel.text));
      if (t.ok() && t.value()->schema().HasColumn(key)) {
        is_column = true;
        break;
      }
    }
    if (is_column) continue;
    reported.insert(key);
    out->push_back(Make(
        "DV001", Severity::kError, SpanOfWord(sql, name),
        "variable '" + name +
            "' is unbound: not declared in FROM and not a column of any "
            "table in scope",
        "declare it as a domain variable (e.g. T." + name + " " + name +
            ") or qualify the column with its tuple variable"));
  }
}

/// DV005: contradiction in the WHERE conjunction via the Thm. 5.2 condition
/// closure (core/implication).
void CheckUnsatisfiable(const std::vector<const Expr*>& conjuncts,
                        const std::string& what,
                        std::vector<Diagnostic>* out) {
  if (conjuncts.empty()) return;
  ConditionAnalyzer closure(conjuncts);
  if (!closure.unsatisfiable()) return;
  out->push_back(
      Make("DV005", Severity::kWarning, {},
           what + " predicate is unsatisfiable — the result is always empty",
           "remove or correct the contradictory comparisons"));
}

/// DV006 (table half): constant-labelled scans that resolve to nothing in
/// the snapshot. Missing tables are not errors at evaluation time either —
/// SchemaSQL ranges are empty, not broken — but a definition-time scan of a
/// nonexistent table is almost always a typo.
void CheckMissingTables(const std::string& sql, const SelectStmt& branch,
                        const CatalogReader& catalog,
                        const std::string& default_db,
                        std::vector<Diagnostic>* out) {
  for (const FromItem& f : branch.from_items) {
    if (f.kind != FromItemKind::kTupleVar) continue;
    if (f.rel.is_variable || f.db.is_variable) continue;  // Grounded later.
    const std::string db = f.db.empty() ? default_db : f.db.text;
    if (catalog.ResolveTable(ToLower(db), ToLower(f.rel.text)).ok()) continue;
    out->push_back(Make(
        "DV006", Severity::kWarning, SpanOfWord(sql, f.rel.text),
        "table " + db + "::" + f.rel.text +
            " does not exist in the catalog snapshot — the scan is empty",
        "create the table before defining over it, or fix the name"));
  }
}

/// DV006 (grounding half): a higher-order branch whose schema variables
/// ground to zero instantiations against the pinned snapshot.
void CheckEmptyGrounding(const SelectStmt& branch, const BoundQuery& bq,
                         const CatalogReader& catalog,
                         const std::string& default_db,
                         std::vector<Diagnostic>* out) {
  if (!bq.higher_order) return;
  Result<std::vector<InstantiatedQuery>> ground =
      InstantiateSchemaVars(branch, bq, catalog, default_db);
  if (!ground.ok() || !ground.value().empty()) return;
  out->push_back(
      Make("DV006", Severity::kWarning, {},
           "schema variables ground to zero instantiations against the "
           "catalog snapshot — the branch contributes nothing",
           "check the database/relation the variables range over"));
}

/// Renders one UNION branch standalone (no chain) for the containment test.
std::string BranchSql(const SelectStmt& branch) {
  std::unique_ptr<SelectStmt> solo = branch.Clone();
  solo->union_next = nullptr;
  solo->union_all = false;
  return solo->ToString();
}

}  // namespace

Analyzer::Analyzer(const CatalogReader* catalog, std::string default_db)
    : catalog_(catalog), default_db_(std::move(default_db)) {}

Analyzer::UsabilityFact Analyzer::ProbeUsability(
    const ViewDefinition& view, const std::string& query_sql) const {
  UsabilityFact fact;
  UsabilityChecker checker(catalog_, default_db_);
  Result<UsabilityResult> set_r =
      checker.CheckSql(view, query_sql, /*multiset=*/false);
  if (set_r.ok() && set_r.value().usable) {
    fact.set_usable = true;
  } else {
    fact.set_reason =
        set_r.ok() ? set_r.value().reason : set_r.status().message();
  }
  Result<UsabilityResult> multi_r =
      checker.CheckSql(view, query_sql, /*multiset=*/true);
  if (multi_r.ok() && multi_r.value().usable) {
    fact.multiset_usable = true;
  } else {
    fact.multiset_reason =
        multi_r.ok() ? multi_r.value().reason : multi_r.status().message();
  }
  return fact;
}

std::vector<Diagnostic> Analyzer::AnalyzeViewStmt(
    const std::string& sql, const CreateViewStmt& parsed,
    const AnalyzeOptions& opts) const {
  std::vector<Diagnostic> diags;
  std::unique_ptr<CreateViewStmt> stmt = parsed.Clone();
  Result<BoundView> bound = Binder::BindView(stmt.get());
  if (!bound.ok()) {
    diags.push_back(Make("DV001", Severity::kError, {},
                         "binding failed: " + bound.status().message()));
    SortDiagnostics(&diags);
    return diags;
  }
  const BoundView& bv = bound.value();
  const SelectStmt& body = *stmt->query;

  // DV001 (unused declarations). Header labels count as uses.
  std::set<std::string> header_uses;
  if (stmt->db.is_variable) header_uses.insert(ToLower(stmt->db.text));
  if (stmt->name.is_variable) header_uses.insert(ToLower(stmt->name.text));
  for (const NameTerm& a : stmt->attrs) {
    if (a.is_variable) header_uses.insert(ToLower(a.text));
  }
  CheckUnusedVariables(sql, body, bv.body, header_uses, &diags);
  CheckUnboundRefs(sql, body, bv.body, *catalog_, default_db_, &diags);

  // DV002 (Def. 3.1): the body must be first order. Both flavors — a
  // data-dependent header over a higher-order body, and a plain higher-order
  // view — are outside the class the architecture registers as sources.
  if (bv.body.higher_order) {
    std::string offender;
    for (const FromItem& f : body.from_items) {
      if (f.kind == FromItemKind::kDatabaseVar ||
          f.kind == FromItemKind::kRelationVar ||
          f.kind == FromItemKind::kAttributeVar) {
        offender = f.var;
        break;
      }
    }
    const bool header_dynamic = bv.db_is_variable || bv.name_is_variable ||
                                std::count(bv.attr_is_variable.begin(),
                                           bv.attr_is_variable.end(), true) > 0;
    std::string msg =
        "view body declares schema variable '" + offender + "'; " +
        (header_dynamic
             ? "Def. 3.1 dynamic views require a first-order body under a "
               "data-dependent output schema"
             : "registered sources must have first-order or dynamic (Def. "
               "3.1) bodies");
    diags.push_back(Make(
        "DV002", Severity::kError, SpanOfWord(sql, offender), std::move(msg),
        "re-declare '" + offender +
            "' as a domain variable over a tuple variable, or split the view "
            "into one first-order view per grounding"));
    SortDiagnostics(&diags);
    return diags;
  }

  // The deeper checks need the Sec. 5 structure; a body outside that
  // fragment is itself a definition-time error for sources.
  Result<ViewDefinition> vd = ViewDefinition::Create(*stmt, *catalog_,
                                                     default_db_);
  if (!vd.ok()) {
    diags.push_back(Make("DV001", Severity::kError, {},
                         "view body is outside the Sec. 5 source fragment: " +
                             vd.status().message(),
                         "each output column must be a single body variable; "
                         "UNION bodies are not supported"));
    CheckMissingTables(sql, body, *catalog_, default_db_, &diags);
    SortDiagnostics(&diags);
    return diags;
  }
  const ViewDefinition& view = vd.value();

  // DV003 (Sec. 4.3): an attribute-variable pivot collapses duplicate rows
  // — the information-capacity loss of Fig. 14.
  if (view.HasAttributeVariables() && !view.IsAggregateView()) {
    std::string pivot_var;
    for (size_t i = 0; i < view.att_terms().size(); ++i) {
      if (view.att_terms()[i].is_variable) {
        pivot_var = view.att_terms()[i].text;
        break;
      }
    }
    diags.push_back(Make(
        "DV003",
        opts.multiset ? Severity::kWarning : Severity::kWarning,
        SpanOfWord(sql, pivot_var),
        "attribute-variable pivot on '" + pivot_var +
            "' loses duplicate multiplicities (Sec. 4.3): the view is not "
            "usable under multiset semantics (Thm. 5.4)",
        "aggregate the pivoted value (MIN/MAX stay answerable per Ex. 5.2 / "
        "Fig. 14) or keep a count column alongside the pivot"));
  }

  // DV004 (Thm. 5.2/5.4): the view must pass the usability test for its own
  // defining query shape, or no rewrite will ever choose it. Aggregate
  // views route through the Sec. 5.2 re-aggregation machinery instead and
  // are exempt from this probe.
  if (!view.IsAggregateView()) {
    UsabilityFact fact = ProbeUsability(view, view.body().ToString());
    if (!fact.set_usable) {
      diags.push_back(Make(
          "DV004", Severity::kWarning, {},
          "view fails the set-usability test for its own defining query "
          "shape: " +
              fact.set_reason + " — the rewriter will never choose it",
          "expose the joined variables in the output schema (Thm. 5.2 "
          "condition 2)"));
    } else if (!fact.multiset_usable) {
      diags.push_back(Make(
          "DV004", opts.multiset ? Severity::kWarning : Severity::kNote, {},
          "view is set-usable but not multiset-usable: " +
              fact.multiset_reason,
          "bag-correct rewritings (Thm. 5.4) will fall back past this "
          "source; duplicate-insensitive queries still use it"));
    }
  }

  // DV005: contradiction in the (normalized) body conjunction.
  CheckUnsatisfiable(view.conds(), "view body", &diags);

  // DV006: constant scans of nonexistent tables.
  CheckMissingTables(sql, body, *catalog_, default_db_, &diags);

  SortDiagnostics(&diags);
  return diags;
}

std::vector<Diagnostic> Analyzer::AnalyzeCreateView(
    const std::string& sql, const AnalyzeOptions& opts) const {
  Result<std::unique_ptr<CreateViewStmt>> parsed = Parser::ParseCreateView(sql);
  if (!parsed.ok()) return {MakeSyntax(parsed.status())};
  return AnalyzeViewStmt(sql, *parsed.value(), opts);
}

std::vector<Diagnostic> Analyzer::AnalyzeSelect(
    const std::string& sql, const AnalyzeOptions& opts) const {
  std::vector<Diagnostic> diags;
  Result<std::unique_ptr<SelectStmt>> parsed = Parser::ParseSelect(sql);
  if (!parsed.ok()) return {MakeSyntax(parsed.status())};
  SelectStmt* stmt = parsed.value().get();

  // Per-branch front-end checks. Each UNION branch has its own scope, so
  // bind (and analyze) them individually, like the engine does.
  size_t branch_count = 0;
  bool any_union_all = false;
  std::vector<std::string> branch_sqls;
  for (SelectStmt* branch = stmt; branch != nullptr;
       branch = branch->union_next.get()) {
    ++branch_count;
    if (branch->union_all) any_union_all = true;
    const std::string label =
        branch_count == 1 && branch->union_next == nullptr
            ? std::string("query")
            : "union branch " + std::to_string(branch_count);
    Result<BoundQuery> bq = Binder::BindBranch(branch);
    if (!bq.ok()) {
      diags.push_back(Make("DV001", Severity::kError, {},
                           label + ": binding failed: " +
                               bq.status().message()));
      continue;
    }
    CheckUnusedVariables(sql, *branch, bq.value(), {}, &diags);
    CheckUnboundRefs(sql, *branch, bq.value(), *catalog_, default_db_,
                     &diags);
    CheckMissingTables(sql, *branch, *catalog_, default_db_, &diags);
    CheckEmptyGrounding(*branch, bq.value(), *catalog_, default_db_, &diags);
    if (bq.value().higher_order) {
      branch_sqls.emplace_back();  // Containment needs first-order branches.
    } else {
      branch_sqls.push_back(BranchSql(*branch));
      // DV005 on a normalized clone (normalization rewrites T.attr column
      // references into the domain variables the condition closure reasons
      // over).
      std::unique_ptr<SelectStmt> norm = branch->Clone();
      norm->union_next = nullptr;
      if (NormalizeQuery(norm.get(), *catalog_, default_db_).ok()) {
        std::vector<const Expr*> conjuncts;
        SplitConjuncts(norm->where.get(), &conjuncts);
        CheckUnsatisfiable(conjuncts, label, &diags);
      }
    }
  }

  // DV006 (dead branch): under UNION set semantics, a branch contained in
  // an earlier one contributes nothing (Def. 4.1). UNION ALL keeps
  // duplicates, so subsumption does not make a branch dead there.
  if (branch_count > 1 && !any_union_all) {
    ContainmentChecker containment(catalog_, default_db_);
    for (size_t j = 1; j < branch_sqls.size(); ++j) {
      if (branch_sqls[j].empty()) continue;
      for (size_t i = 0; i < j; ++i) {
        if (branch_sqls[i].empty()) continue;
        Result<bool> contained =
            containment.Contained(branch_sqls[j], branch_sqls[i]);
        if (!contained.ok() || !contained.value()) continue;
        diags.push_back(Make(
            "DV006", Severity::kWarning, {},
            "union branch " + std::to_string(j + 1) +
                " is contained in branch " + std::to_string(i + 1) +
                " (Def. 4.1) — dead under UNION set semantics",
            "drop the subsumed branch, or use UNION ALL if duplicates are "
            "intended"));
        break;
      }
    }
  }

  // DV004 (query side): when registered sources are in scope, verify some
  // source passes the usability test for this query shape.
  if (opts.sources != nullptr && !opts.sources->empty() &&
      branch_count == 1) {
    bool any_usable = false;
    std::string reasons;
    for (const auto& source : *opts.sources) {
      if (source->IsAggregateView()) continue;  // Sec. 5.2 machinery.
      UsabilityFact fact = ProbeUsability(*source, sql);
      const bool usable =
          opts.multiset ? fact.multiset_usable : fact.set_usable;
      if (usable) {
        any_usable = true;
        break;
      }
      if (!reasons.empty()) reasons += "; ";
      reasons += source->rel_term().text + ": " +
                 (opts.multiset ? fact.multiset_reason : fact.set_reason);
    }
    if (!any_usable && !reasons.empty()) {
      diags.push_back(Make(
          "DV004", Severity::kWarning, {},
          std::string("no registered source is ") +
              (opts.multiset ? "multiset" : "set") +
              "-usable for this query shape (" + reasons + ")",
          "the query can only be answered directly from the integration "
          "schema"));
    }
  }

  SortDiagnostics(&diags);
  return diags;
}

std::vector<Diagnostic> Analyzer::AnalyzeCreateIndex(
    const std::string& sql, const AnalyzeOptions& opts) const {
  (void)opts;
  std::vector<Diagnostic> diags;
  Result<std::unique_ptr<CreateIndexStmt>> parsed =
      Parser::ParseCreateIndex(sql);
  if (!parsed.ok()) return {MakeSyntax(parsed.status())};
  Result<BoundQuery> bq = Binder::BindIndex(parsed.value().get());
  if (!bq.ok()) {
    diags.push_back(Make("DV001", Severity::kError, {},
                         "binding failed: " + bq.status().message()));
    SortDiagnostics(&diags);
    return diags;
  }
  const SelectStmt& body = *parsed.value()->query;
  // GIVEN expressions count as uses for the DV001 unused-variable check.
  std::set<std::string> given_uses;
  bool star = false;
  for (const auto& g : parsed.value()->given) {
    CollectExprUses(*g, &given_uses, &star);
  }
  CheckUnusedVariables(sql, body, bq.value(), given_uses, &diags);
  CheckUnboundRefs(sql, body, bq.value(), *catalog_, default_db_, &diags);
  CheckMissingTables(sql, body, *catalog_, default_db_, &diags);
  CheckEmptyGrounding(body, bq.value(), *catalog_, default_db_, &diags);
  SortDiagnostics(&diags);
  return diags;
}

std::vector<Diagnostic> Analyzer::AnalyzeStatement(
    const std::string& sql, const AnalyzeOptions& opts) const {
  Result<Statement> parsed = Parser::Parse(sql);
  if (!parsed.ok()) return {MakeSyntax(parsed.status())};
  if (parsed.value().create_view != nullptr) {
    return AnalyzeViewStmt(sql, *parsed.value().create_view, opts);
  }
  if (parsed.value().create_index != nullptr) {
    return AnalyzeCreateIndex(sql, opts);
  }
  return AnalyzeSelect(sql, opts);
}

std::vector<Diagnostic> Analyzer::AnalyzeRegisteredView(
    const ViewDefinition& view, const CatalogSnapshot& snap,
    const AnalyzeOptions& opts) const {
  const std::string sql = view.stmt().ToString();
  std::vector<Diagnostic> diags = AnalyzeViewStmt(sql, view.stmt(), opts);
  // The stored statement is the *normalized* body: normalization declares
  // domain variables the author never wrote, so the unused-variable warning
  // (the only DV001 warning) would misfire here. Errors stay.
  diags.erase(std::remove_if(diags.begin(), diags.end(),
                             [](const Diagnostic& d) {
                               return d.code == "DV001" &&
                                      d.severity == Severity::kWarning;
                             }),
              diags.end());
  // DV007: the fence is already behind the snapshot at analysis time —
  // every query pinned to `snap` (or later) will skip this source.
  if (view.fenced() && view.IsStaleAgainst(snap)) {
    std::string moved;
    for (const TableRef& t : view.tables()) {
      if (snap.DatabaseVersion(t.db) > view.materialized_version()) {
        moved = t.db;
        break;
      }
    }
    diags.push_back(Make(
        "DV007", Severity::kWarning, {},
        "materialization was built at catalog version " +
            std::to_string(view.materialized_version()) + " but database '" +
            moved + "' has committed at version " +
            std::to_string(snap.DatabaseVersion(moved)) +
            " — queries fence this source off and fall back to base tables",
        "re-materialize the view or run the incremental maintainer to "
        "advance the fence"));
    SortDiagnostics(&diags);
  }
  return diags;
}

void RecordAnalyzeMetrics(const std::vector<Diagnostic>& diags,
                          MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  // Per-definition checks only: the DV1xx workload-audit entries in the
  // registry run per audit, not per analyzed statement.
  size_t per_definition = 0;
  for (const CheckInfo& c : CheckCatalog()) {
    if (std::string_view(c.code) < std::string_view("DV100")) ++per_definition;
  }
  metrics->Add(counters::kAnalyzeChecksRun, per_definition);
  metrics->Add(counters::kAnalyzeDiagnostics, diags.size());
  metrics->Add(counters::kAnalyzeErrors,
               CountSeverity(diags, Severity::kError));
  metrics->Add(counters::kAnalyzeWarnings,
               CountSeverity(diags, Severity::kWarning));
  metrics->Add(counters::kAnalyzeNotes, CountSeverity(diags, Severity::kNote));
}

}  // namespace dynview
