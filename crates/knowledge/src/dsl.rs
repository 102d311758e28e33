//! The DSL specification (paper §IV-C): the JSON intermediate between NL
//! queries and executable artifacts, with schema validation and the
//! rule-based converters to SQL, chart specs, and dscript pipelines.

use datalab_json::{json_struct, Value as Json};
use datalab_llm::intent::Evidence;
use datalab_viz::{ChartFilter, ChartSpec, FieldDef, Mark};

/// One measure in the DSL.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DslMeasure {
    /// Owning table (optional for COUNT(*)).
    pub table: Option<String>,
    /// Measured column; `None` means `COUNT(*)`.
    pub column: Option<String>,
    /// Aggregate name: `sum|avg|count|count_distinct|min|max`.
    pub aggregate: String,
    /// Calculation expression for derived measures.
    pub expr: Option<String>,
    /// Output alias.
    pub alias: Option<String>,
}

json_struct!(DslMeasure {
    table: default,
    column: default,
    aggregate: req,
    expr: default,
    alias: default,
});

impl DslMeasure {
    /// Output alias, defaulting to `agg_column`.
    pub fn alias_or_default(&self) -> String {
        self.alias.clone().unwrap_or_else(|| match &self.column {
            Some(c) => format!("{}_{}", self.aggregate, c.to_lowercase()),
            None => "cnt".to_string(),
        })
    }
}

/// A dimension or projection column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DslColumn {
    /// Owning table.
    pub table: String,
    /// Column name.
    pub column: String,
}

json_struct!(DslColumn {
    table: default,
    column: req
});

/// One filter condition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DslCondition {
    /// Owning table.
    pub table: String,
    /// Filtered column.
    pub column: String,
    /// Operator: `=|>|>=|<|<=|!=|between`.
    pub op: String,
    /// Operand (number, string, or `[lo, hi]` for `between`).
    pub value: Json,
}

json_struct!(DslCondition {
    table: default,
    column: req,
    op: req,
    value: req
});

/// Ordering directive.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DslOrder {
    /// What to sort on (currently `measure` = the first measure).
    pub target: String,
    /// Descending?
    pub desc: bool,
}

json_struct!(DslOrder {
    target: default,
    desc: default
});

/// The full DSL specification.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DslSpec {
    /// Measures (numerical aggregations).
    pub measure_list: Vec<DslMeasure>,
    /// Grouping dimensions (categorical columns).
    pub dimension_list: Vec<DslColumn>,
    /// Filters.
    pub condition_list: Vec<DslCondition>,
    /// Plain projections for list queries.
    pub projection_list: Vec<DslColumn>,
    /// Ordering.
    pub order_by: Option<DslOrder>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// Chart-type hint.
    pub chart: Option<String>,
    /// Data-preparation request: drop rows with missing values first.
    pub clean: Option<bool>,
}

json_struct!(DslSpec {
    measure_list as "MeasureList": default,
    dimension_list as "DimensionList": default,
    condition_list as "ConditionList": default,
    projection_list as "ProjectionList": default,
    order_by as "OrderBy": default,
    limit as "Limit": default,
    chart as "Chart": default,
    clean as "Clean": default,
});

const AGGREGATES: &[&str] = &["sum", "avg", "count", "count_distinct", "min", "max"];
const OPS: &[&str] = &["=", "==", ">", ">=", "<", "<=", "!=", "<>", "between"];

/// Validates raw DSL JSON against the DSL's schema (paper §IV-C uses JSON
/// Schema; this is an equivalent hand-rolled validator) and deserializes
/// it. Returns all violations at once so the caller can report or retry.
pub fn validate_dsl_json(text: &str) -> Result<DslSpec, Vec<String>> {
    let json: Json = match datalab_json::from_str(text.trim()) {
        Ok(j) => j,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };
    let mut errors = Vec::new();
    if !json.is_object() {
        return Err(vec!["top-level value must be an object".into()]);
    }
    for key in ["MeasureList", "DimensionList", "ConditionList"] {
        if !json[key].is_null() && !json[key].is_array() {
            errors.push(format!("{key} must be an array"));
        }
    }
    if let Some(measures) = json["MeasureList"].as_array() {
        for (i, m) in measures.iter().enumerate() {
            match m["aggregate"].as_str() {
                Some(a) if AGGREGATES.contains(&a) => {}
                Some(a) => errors.push(format!("MeasureList[{i}]: unknown aggregate '{a}'")),
                None => errors.push(format!("MeasureList[{i}]: missing aggregate")),
            }
            let has_col = m["column"].is_string();
            let has_expr = m["expr"].is_string();
            let is_count = m["aggregate"].as_str() == Some("count");
            if !has_col && !has_expr && !is_count {
                errors.push(format!("MeasureList[{i}]: needs a column or expr"));
            }
        }
    }
    if let Some(conds) = json["ConditionList"].as_array() {
        for (i, c) in conds.iter().enumerate() {
            if !c["column"].is_string() {
                errors.push(format!("ConditionList[{i}]: missing column"));
            }
            match c["op"].as_str() {
                Some(op) if OPS.contains(&op) => {
                    if op == "between" {
                        let ok = c["value"].as_array().map(|a| a.len() == 2).unwrap_or(false);
                        if !ok {
                            errors.push(format!(
                                "ConditionList[{i}]: between requires a [lo, hi] pair"
                            ));
                        }
                    }
                }
                Some(op) => errors.push(format!("ConditionList[{i}]: unknown op '{op}'")),
                None => errors.push(format!("ConditionList[{i}]: missing op")),
            }
        }
    }
    if let Some(chart) = json["Chart"].as_str() {
        if Mark::parse(chart).is_none() {
            errors.push(format!("Chart: unknown mark '{chart}'"));
        }
    }
    if !json["Limit"].is_null() && json["Limit"].as_u64().is_none() {
        errors.push("Limit must be a non-negative integer".into());
    }
    let empty = json["MeasureList"]
        .as_array()
        .map(|a| a.is_empty())
        .unwrap_or(true)
        && json["DimensionList"]
            .as_array()
            .map(|a| a.is_empty())
            .unwrap_or(true)
        && json["ProjectionList"]
            .as_array()
            .map(|a| a.is_empty())
            .unwrap_or(true);
    if empty {
        errors.push("spec selects nothing (no measures, dimensions, or projections)".into());
    }
    if !errors.is_empty() {
        return Err(errors);
    }
    datalab_json::from_value(&json).map_err(|e| vec![format!("deserialization failed: {e}")])
}

fn sql_quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Renders an identifier, quoting it when it collides with a keyword.
fn ident(s: &str) -> String {
    if datalab_sql::is_reserved_word(s) {
        format!("\"{s}\"")
    } else {
        s.to_string()
    }
}

fn json_sql(v: &Json) -> String {
    match v {
        Json::Number(n) => n.to_string(),
        Json::String(s) => sql_quote(s),
        Json::Bool(b) => b.to_string(),
        other => sql_quote(&other.to_string()),
    }
}

impl DslSpec {
    /// Every table the spec touches, first-mention order.
    pub fn tables(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut add = |t: &str| {
            if !t.is_empty() && !out.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                out.push(t.to_string());
            }
        };
        for m in &self.measure_list {
            if let Some(t) = &m.table {
                add(t);
            }
        }
        for d in &self.dimension_list {
            add(&d.table);
        }
        for c in &self.condition_list {
            add(&c.table);
        }
        for p in &self.projection_list {
            add(&p.table);
        }
        out
    }

    /// Rule-based conversion to SQL (paper: "directly converted to
    /// high-level languages like SQL based on predefined rules").
    /// `evidence` supplies FK join paths when the spec spans tables.
    pub fn to_sql(&self, evidence: Option<&Evidence>) -> String {
        let tables = self.tables();
        let base = tables
            .first()
            .cloned()
            .unwrap_or_else(|| "data".to_string());
        let multi = tables.len() > 1;
        let qual = |t: &str, c: &str| {
            if multi && !t.is_empty() {
                format!("{}.{}", ident(t), ident(c))
            } else {
                ident(c)
            }
        };
        let mut items: Vec<String> = Vec::new();
        for d in &self.dimension_list {
            items.push(qual(&d.table, &d.column));
        }
        for m in &self.measure_list {
            let inner = match (&m.expr, &m.column) {
                (Some(e), _) => e.clone(),
                (None, Some(c)) => qual(m.table.as_deref().unwrap_or(""), c),
                (None, None) => "*".to_string(),
            };
            let agg = match m.aggregate.as_str() {
                "count_distinct" => return_count_distinct(&inner, &m.alias_or_default()),
                a => format!("{}({inner}) AS {}", a.to_uppercase(), m.alias_or_default()),
            };
            items.push(agg);
        }
        for p in &self.projection_list {
            items.push(qual(&p.table, &p.column));
        }
        if items.is_empty() {
            items.push("*".to_string());
        }
        let mut sql = format!("SELECT {} FROM {}", items.join(", "), ident(&base));
        if multi {
            if let Some(ev) = evidence {
                for t in tables.iter().skip(1) {
                    if let Some(path) = ev.join_path(&base, t) {
                        for (l, r) in path {
                            sql.push_str(&format!(
                                " JOIN {} ON {}.{} = {}.{}",
                                r.table, l.table, l.column, r.table, r.column
                            ));
                        }
                    }
                }
            }
        }
        if !self.condition_list.is_empty() {
            let conds: Vec<String> = self
                .condition_list
                .iter()
                .map(|c| {
                    let col = qual(&c.table, &c.column);
                    if c.op == "between" {
                        let arr = c.value.as_array().cloned().unwrap_or_default();
                        let lo = arr.first().map(json_sql).unwrap_or_else(|| "NULL".into());
                        let hi = arr.get(1).map(json_sql).unwrap_or_else(|| "NULL".into());
                        format!("{col} BETWEEN {lo} AND {hi}")
                    } else {
                        let op = if c.op == "==" { "=" } else { c.op.as_str() };
                        format!("{col} {op} {}", json_sql(&c.value))
                    }
                })
                .collect();
            sql.push_str(" WHERE ");
            sql.push_str(&conds.join(" AND "));
        }
        if !self.measure_list.is_empty() && !self.dimension_list.is_empty() {
            let dims: Vec<String> = self
                .dimension_list
                .iter()
                .map(|d| qual(&d.table, &d.column))
                .collect();
            sql.push_str(&format!(" GROUP BY {}", dims.join(", ")));
        }
        if let Some(order) = &self.order_by {
            if let Some(m) = self.measure_list.first() {
                sql.push_str(&format!(
                    " ORDER BY {}{}",
                    m.alias_or_default(),
                    if order.desc { " DESC" } else { "" }
                ));
            }
        }
        if let Some(n) = self.limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        sql
    }

    /// Rule-based conversion to a chart spec.
    pub fn to_chart(&self) -> ChartSpec {
        let mark = self
            .chart
            .as_deref()
            .and_then(Mark::parse)
            .unwrap_or(Mark::Bar);
        let x = self.dimension_list.first().map(|d| FieldDef {
            field: d.column.clone(),
            aggregate: None,
        });
        let y = self.measure_list.first().map(|m| FieldDef {
            field: m.column.clone().unwrap_or_else(|| "*".into()),
            aggregate: Some(if m.aggregate == "avg" {
                "avg".into()
            } else {
                m.aggregate.clone()
            }),
        });
        let filters = self
            .condition_list
            .iter()
            .map(|c| ChartFilter {
                column: c.column.clone(),
                op: c.op.clone(),
                value: c.value.clone(),
            })
            .collect();
        ChartSpec {
            mark,
            data: self.tables().first().cloned().unwrap_or_default(),
            x,
            y,
            color: None,
            filters,
            limit: self.limit,
            sort_desc: self.order_by.as_ref().map(|o| o.desc),
            title: None,
        }
    }

    /// Rule-based conversion to a dscript pipeline.
    pub fn to_dscript(&self) -> String {
        let tables = self.tables();
        let base = tables
            .first()
            .cloned()
            .unwrap_or_else(|| "data".to_string());
        let mut lines = vec![format!("load {base}")];
        if self.clean.unwrap_or(false) {
            lines.push("dropna".to_string());
        }
        for c in &self.condition_list {
            let line = if c.op == "between" {
                let arr = c.value.as_arr().unwrap_or_default();
                let lo = arr.first().map(json_sql).unwrap_or_else(|| "NULL".into());
                let hi = arr.get(1).map(json_sql).unwrap_or_else(|| "NULL".into());
                format!("filter {} between {lo} {hi}", c.column)
            } else if c.value.is_string() {
                format!("filter {} == {}", c.column, json_sql(&c.value))
            } else {
                let op = if c.op == "=" { "==" } else { c.op.as_str() };
                format!("filter {} {op} {}", c.column, c.value)
            };
            lines.push(line);
        }
        for m in &self.measure_list {
            if let (Some(expr), Some(col)) = (&m.expr, &m.column) {
                lines.push(format!("derive {col} = {expr}"));
            }
        }
        if !self.measure_list.is_empty() {
            let aggs: Vec<String> = self
                .measure_list
                .iter()
                .map(|m| {
                    format!(
                        "{}({}) as {}",
                        m.aggregate,
                        m.column.clone().unwrap_or_else(|| "*".into()),
                        m.alias_or_default()
                    )
                })
                .collect();
            let dims: Vec<String> = self
                .dimension_list
                .iter()
                .map(|d| d.column.clone())
                .collect();
            lines.push(format!("groupby {}: {}", dims.join(", "), aggs.join(", ")));
        } else if !self.projection_list.is_empty() {
            let cols: Vec<String> = self
                .projection_list
                .iter()
                .map(|p| p.column.clone())
                .collect();
            lines.push(format!("select {}", cols.join(", ")));
        }
        if let Some(order) = &self.order_by {
            if let Some(m) = self.measure_list.first() {
                lines.push(format!(
                    "sort {}{}",
                    m.alias_or_default(),
                    if order.desc { " desc" } else { "" }
                ));
            }
        }
        if let Some(n) = self.limit {
            lines.push(format!("limit {n}"));
        }
        lines.join("\n")
    }
}

fn return_count_distinct(inner: &str, alias: &str) -> String {
    format!("COUNT(DISTINCT {inner}) AS {alias}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json() -> String {
        datalab_json::json!({
            "MeasureList": [{"table": "sales", "column": "amount", "aggregate": "sum", "expr": null, "alias": "sum_amount"}],
            "DimensionList": [{"table": "sales", "column": "region"}],
            "ConditionList": [{"table": "sales", "column": "ftime", "op": "between", "value": ["2024-01-01", "2024-12-31"]}],
            "ProjectionList": [],
            "OrderBy": {"target": "measure", "desc": true},
            "Limit": 5,
            "Chart": "bar"
        })
        .to_string()
    }

    #[test]
    fn validates_and_deserializes() {
        let spec = validate_dsl_json(&sample_json()).unwrap();
        assert_eq!(spec.measure_list[0].aggregate, "sum");
        assert_eq!(spec.dimension_list[0].column, "region");
        assert_eq!(spec.limit, Some(5));
    }

    #[test]
    fn rejects_bad_aggregate_and_op() {
        let bad = datalab_json::json!({
            "MeasureList": [{"column": "x", "aggregate": "median"}],
            "ConditionList": [{"column": "y", "op": "like", "value": "a"}],
        })
        .to_string();
        let errs = validate_dsl_json(&bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("median")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("like")), "{errs:?}");
    }

    #[test]
    fn rejects_empty_spec_and_bad_between() {
        let errs = validate_dsl_json(
            r#"{"MeasureList":[],"ConditionList":[{"column":"x","op":"between","value":[1]}]}"#,
        )
        .unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("selects nothing")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("[lo, hi]")), "{errs:?}");
        assert!(validate_dsl_json("not json").is_err());
    }

    #[test]
    fn compiles_to_sql() {
        let spec = validate_dsl_json(&sample_json()).unwrap();
        let sql = spec.to_sql(None);
        assert_eq!(
            sql,
            "SELECT region, SUM(amount) AS sum_amount FROM sales \
             WHERE ftime BETWEEN '2024-01-01' AND '2024-12-31' \
             GROUP BY region ORDER BY sum_amount DESC LIMIT 5"
        );
    }

    #[test]
    fn compiles_to_chart_and_dscript() {
        let spec = validate_dsl_json(&sample_json()).unwrap();
        let chart = spec.to_chart();
        assert_eq!(chart.mark, Mark::Bar);
        assert_eq!(chart.x.as_ref().unwrap().field, "region");
        assert_eq!(chart.y.as_ref().unwrap().aggregate.as_deref(), Some("sum"));
        let ds = spec.to_dscript();
        assert!(ds.starts_with("load sales"), "{ds}");
        assert!(
            ds.contains("groupby region: sum(amount) as sum_amount"),
            "{ds}"
        );
    }

    #[test]
    fn sql_joins_follow_evidence_fks() {
        let ev = Evidence::from_schema(
            "table sales: region (str), amount (int)\n\
             table users: city (str), id (int)\n\
             fk sales.region = users.city\n",
        );
        let spec = DslSpec {
            measure_list: vec![DslMeasure {
                table: Some("sales".into()),
                column: Some("amount".into()),
                aggregate: "sum".into(),
                ..Default::default()
            }],
            dimension_list: vec![DslColumn {
                table: "users".into(),
                column: "city".into(),
            }],
            ..Default::default()
        };
        let sql = spec.to_sql(Some(&ev));
        assert!(
            sql.contains("JOIN users ON sales.region = users.city"),
            "{sql}"
        );
    }

    #[test]
    fn count_star_sql() {
        let spec = DslSpec {
            measure_list: vec![DslMeasure {
                aggregate: "count".into(),
                alias: Some("n".into()),
                table: Some("t".into()),
                ..Default::default()
            }],
            ..Default::default()
        };
        assert_eq!(spec.to_sql(None), "SELECT COUNT(*) AS n FROM t");
    }
}
