#include "schemasql/instantiate.h"

#include "common/str_util.h"
#include "engine/expr_eval.h"

namespace dynview {

namespace {

/// Resolves a label term to a concrete name under a partial grounding.
std::string GroundLabelText(const NameTerm& term,
                            const std::map<std::string, std::string>& labels,
                            const std::string& fallback) {
  if (term.empty()) return fallback;
  if (term.is_variable) {
    auto it = labels.find(ToLower(term.text));
    return it == labels.end() ? "" : it->second;
  }
  return term.text;
}

void SubstituteExpr(Expr* e, const BoundQuery& bq,
                    const std::map<std::string, std::string>& labels) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kVarRef) {
    const BoundVariable* v = bq.Find(e->var_name);
    if (v != nullptr && IsSchemaVarClass(v->cls)) {
      auto it = labels.find(ToLower(e->var_name));
      if (it != labels.end()) {
        e->kind = ExprKind::kLiteral;
        e->literal = Value::String(it->second);
        e->var_name.clear();
      }
    }
    return;
  }
  if (e->kind == ExprKind::kColumnRef && e->column.is_variable) {
    auto it = labels.find(ToLower(e->column.text));
    if (it != labels.end()) {
      e->column.text = it->second;
      e->column.is_variable = false;
    }
    return;
  }
  SubstituteExpr(e->left.get(), bq, labels);
  SubstituteExpr(e->right.get(), bq, labels);
}

void GroundNameTerm(NameTerm* term,
                    const std::map<std::string, std::string>& labels) {
  if (term->is_variable) {
    auto it = labels.find(ToLower(term->text));
    if (it != labels.end()) {
      term->text = it->second;
      term->is_variable = false;
    }
  }
}

/// The database a tuple reference resolves against: its explicit qualifier,
/// or the database its relation variable ranged over, or the default.
std::string TupleDbLabel(const FromItem& f, const Grounding& g,
                         const std::string& default_db) {
  if (!f.db.empty()) return GroundLabelText(f.db, g.labels, default_db);
  if (f.rel.is_variable) {
    auto it = g.relvar_db.find(ToLower(f.rel.text));
    if (it != g.relvar_db.end()) return it->second;
  }
  return default_db;
}

/// The top-level WHERE conjuncts whose only references are schema variables
/// (e.g. `R = 'coa'`, `R IN ('a', 'b')`). Each restricts the range of the
/// variables it names: it is judged once per grounding, as soon as the last
/// of its variables has a label, by the engine's own evaluator over a
/// one-row binding of the grounded labels — so a label compares exactly as
/// the substituted literal would in the first-order query.
class LabelConjuncts {
 public:
  LabelConjuncts(const SelectStmt& stmt, const BoundQuery& bq) : bq_(bq) {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(stmt.where.get(), &conjuncts);
    for (const Expr* c : conjuncts) {
      std::vector<std::string> refs;
      c->CollectVarRefs(&refs);
      if (!refs.empty()) pending_.push_back(c);  // Constants: the engine's.
    }
  }

  /// Starts grounding schema variable `var`. True when some conjunct can be
  /// judged from now on; Admits then judges each label of `var`.
  bool Bind(const std::string& var) {
    ready_.clear();
    if (pending_.empty()) return false;
    const BoundVariable* v = bq_.Find(var);
    if (v == nullptr || !IsSchemaVarClass(v->cls)) return false;
    bindings_.AddNamed(var, static_cast<int>(vars_.size()));
    vars_.push_back(ToLower(var));
    std::vector<const Expr*> waiting;
    for (const Expr* c : pending_) {
      (CanEvaluate(*c, bindings_) ? ready_ : waiting).push_back(c);
    }
    pending_ = std::move(waiting);
    return !ready_.empty();
  }

  /// False when, with the earlier variables labelled as in `g` and the one
  /// just bound labelled `label`, a judgeable conjunct is False or Unknown.
  /// A conjunct that errors admits the label, so evaluating the grounding
  /// reports that error.
  bool Admits(const Grounding& g, const std::string& label) const {
    Row row;
    row.reserve(vars_.size());
    for (size_t i = 0; i + 1 < vars_.size(); ++i) {
      row.push_back(Value::String(g.labels.at(vars_[i])));
    }
    row.push_back(Value::String(label));
    bool rejected = false;
    for (const Expr* c : ready_) {
      Result<TriBool> t = EvaluatePredicate(*c, row, bindings_);
      if (!t.ok()) return true;
      if (t.value() != TriBool::kTrue) rejected = true;
    }
    return !rejected;
  }

 private:
  const BoundQuery& bq_;
  std::vector<const Expr*> pending_;  // Not yet judgeable.
  std::vector<const Expr*> ready_;    // Judged on the variable just bound.
  ColumnBindings bindings_;           // Bound variable → row slot.
  std::vector<std::string> vars_;     // Row slot → lowercased variable.
};

/// The groundings of `stmt`'s schema variables, in FROM declaration order:
///   * a database variable ranges over all database names,
///   * a relation variable over the relations of its (grounded) database,
///   * an attribute variable over the attributes of its (grounded) relation.
/// With `label_conjuncts`, each label a conjunct rejects is dropped as it
/// is enumerated (a rejected prefix is never extended) and counted in
/// `*pruned`.
std::vector<Grounding> Enumerate(const SelectStmt& stmt,
                                 const CatalogReader& catalog,
                                 const std::string& default_db,
                                 LabelConjuncts* label_conjuncts,
                                 uint64_t* pruned) {
  std::vector<Grounding> groundings;
  groundings.emplace_back();
  for (const FromItem& f : stmt.from_items) {
    if (f.kind == FromItemKind::kTupleVar ||
        f.kind == FromItemKind::kDomainVar) {
      continue;  // Not a schema variable; keep current groundings.
    }
    const std::string var = ToLower(f.var);
    const bool restrict =
        label_conjuncts != nullptr && label_conjuncts->Bind(f.var);
    std::vector<Grounding> next;
    auto extend = [&](const Grounding& g, const std::string& label) {
      if (restrict && !label_conjuncts->Admits(g, label)) {
        ++*pruned;
        return false;
      }
      next.push_back(g);
      next.back().labels[var] = label;
      return true;
    };
    for (const Grounding& g : groundings) {
      switch (f.kind) {
        case FromItemKind::kDatabaseVar:
          for (const std::string& db : catalog.DatabaseNames()) extend(g, db);
          break;
        case FromItemKind::kRelationVar: {
          std::string db_name = GroundLabelText(f.db, g.labels, default_db);
          Result<const Database*> db = catalog.GetDatabase(db_name);
          if (!db.ok()) break;  // Empty range.
          for (const std::string& rel : db.value()->TableNames()) {
            if (extend(g, rel)) next.back().relvar_db[var] = db_name;
          }
          break;
        }
        default: {  // kAttributeVar.
          std::string db_name = GroundLabelText(f.db, g.labels, default_db);
          std::string rel_name = GroundLabelText(f.rel, g.labels, "");
          Result<const Table*> t = catalog.ResolveTable(db_name, rel_name);
          if (!t.ok()) break;  // Empty range.
          for (const std::string& attr : t.value()->schema().ColumnNames()) {
            extend(g, attr);
          }
          break;
        }
      }
    }
    groundings = std::move(next);
  }
  return groundings;
}

/// False when a variable-derived tuple reference of `stmt` resolves
/// kNotFound under `g`. Any other resolution failure (e.g. an injected
/// kUnavailable) means the relation exists but is failing — the grounding
/// stays, so the evaluation fan-out surfaces the error under the active
/// SourcePolicy instead of silently narrowing the query.
bool Feasible(const SelectStmt& stmt, const Grounding& g,
              const CatalogReader& catalog, const std::string& default_db) {
  for (const FromItem& f : stmt.from_items) {
    if (f.kind != FromItemKind::kTupleVar) continue;
    if (!f.db.is_variable && !f.rel.is_variable) continue;
    std::string db_name = TupleDbLabel(f, g, default_db);
    std::string rel_name = GroundLabelText(f.rel, g.labels, "");
    Result<const Table*> t = catalog.ResolveTable(db_name, rel_name);
    if (!t.ok() && t.status().code() == StatusCode::kNotFound) return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<SelectStmt> SubstituteLabels(const SelectStmt& stmt,
                                             const BoundQuery& bq,
                                             const Grounding& grounding) {
  const auto& labels = grounding.labels;
  std::unique_ptr<SelectStmt> out = stmt.Clone();
  // Preserve output column names: bare references gain an alias before the
  // substitution turns them into literals.
  for (SelectItem& item : out->select_list) {
    if (!item.alias.empty() || item.expr == nullptr) continue;
    if (item.expr->kind == ExprKind::kVarRef) {
      item.alias = item.expr->var_name;
    } else if (item.expr->kind == ExprKind::kColumnRef) {
      item.alias = item.expr->column.text;
    }
  }
  // Drop grounded schema-variable declarations; ground label positions in
  // the remaining FROM items.
  std::vector<FromItem> kept;
  for (FromItem& f : out->from_items) {
    switch (f.kind) {
      case FromItemKind::kDatabaseVar:
      case FromItemKind::kRelationVar:
      case FromItemKind::kAttributeVar:
        if (labels.count(ToLower(f.var)) > 0) continue;  // Grounded away.
        kept.push_back(std::move(f));
        break;
      case FromItemKind::kTupleVar: {
        // A reference through a relation variable inherits that variable's
        // database (e.g. `s2 -> R, R T` must scan relations *of s2*).
        if (f.db.empty() && f.rel.is_variable) {
          auto it = grounding.relvar_db.find(ToLower(f.rel.text));
          if (it != grounding.relvar_db.end()) {
            f.db = NameTerm(it->second);
          }
        }
        GroundNameTerm(&f.db, labels);
        GroundNameTerm(&f.rel, labels);
        kept.push_back(std::move(f));
        break;
      }
      case FromItemKind::kDomainVar:
        GroundNameTerm(&f.attr, labels);
        kept.push_back(std::move(f));
        break;
    }
  }
  out->from_items = std::move(kept);
  // Ground expressions.
  for (SelectItem& item : out->select_list) {
    SubstituteExpr(item.expr.get(), bq, labels);
  }
  SubstituteExpr(out->where.get(), bq, labels);
  for (auto& g : out->group_by) SubstituteExpr(g.get(), bq, labels);
  SubstituteExpr(out->having.get(), bq, labels);
  for (OrderItem& o : out->order_by) SubstituteExpr(o.expr.get(), bq, labels);
  // UNION branches have their own scopes and are instantiated separately by
  // the engine; do not recurse. A LIMIT applies to the combined result, not
  // to individual groundings.
  out->union_next.reset();
  out->union_all = false;
  out->limit = -1;
  return out;
}

Result<std::vector<InstantiatedQuery>> InstantiateSchemaVars(
    const SelectStmt& stmt, const BoundQuery& bq, const CatalogReader& catalog,
    const std::string& default_db, GroundingCounts* counts) {
  LabelConjuncts label_conjuncts(stmt, bq);
  uint64_t pruned_predicate = 0;
  std::vector<Grounding> groundings = Enumerate(
      stmt, catalog, default_db, &label_conjuncts, &pruned_predicate);
  const uint64_t enumerated = groundings.size() + pruned_predicate;

  // Discard groundings under which a *variable-derived* tuple reference does
  // not exist (the variable "ranges over" valid labels only). Constant
  // references are left to the evaluator, which reports NotFound.
  uint64_t pruned_notfound = 0;
  std::vector<Grounding> kept;
  for (Grounding& g : groundings) {
    if (Feasible(stmt, g, catalog, default_db)) {
      kept.push_back(std::move(g));
    } else {
      ++pruned_notfound;
    }
  }
  if (kept.empty() && pruned_predicate > 0) {
    // The label conjuncts exclude every grounding. Keep the first feasible
    // one of the unrestricted enumeration: it evaluates to nothing, and the
    // empty answer keeps the output schema (SELECT * included) that
    // evaluating every grounding gives.
    for (Grounding& g :
         Enumerate(stmt, catalog, default_db, nullptr, nullptr)) {
      if (!Feasible(stmt, g, catalog, default_db)) continue;
      kept.push_back(std::move(g));
      --pruned_predicate;
      break;
    }
  }

  if (counts != nullptr) {
    *counts = GroundingCounts{enumerated, pruned_notfound, pruned_predicate};
  }
  std::vector<InstantiatedQuery> out;
  out.reserve(kept.size());
  for (Grounding& g : kept) {
    InstantiatedQuery iq;
    iq.query = SubstituteLabels(stmt, bq, g);
    iq.labels = std::move(g.labels);
    out.push_back(std::move(iq));
  }
  return out;
}

}  // namespace dynview
