//! The dscript sandbox — DataLab's executable environment for
//! code-generation agents (the Python-sandbox substitution; DESIGN.md).
//!
//! dscript is a line-oriented pipeline language over tables:
//!
//! ```text
//! load sales
//! filter amount > 100
//! filter region == 'east'
//! dropna amount
//! dedup
//! derive profit = amount - cost
//! rename profit net_profit
//! groupby region: sum(net_profit) as sum_profit, count(*) as n
//! sort sum_profit desc
//! limit 5
//! ```
//!
//! Programs are checked strictly and executed by compilation onto the SQL
//! engine (each step wraps the previous one as a derived table), so
//! results are real and comparable against gold outputs.

use datalab_frame::DataFrame;
use datalab_sql::{run_sql, Database};
use std::fmt;

/// Sandbox failures: the split matters because agents retry parse errors
/// with feedback, while missing tables are terminal.
#[derive(Debug, Clone, PartialEq)]
pub enum SandboxError {
    /// The program does not conform to the dscript grammar.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The program parsed but failed to execute.
    Exec(String),
}

impl fmt::Display for SandboxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SandboxError::Parse { line, message } => {
                write!(f, "dscript parse error at line {line}: {message}")
            }
            SandboxError::Exec(m) => write!(f, "dscript execution error: {m}"),
        }
    }
}

impl std::error::Error for SandboxError {}

/// A parsed pipeline step.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Load(String),
    Filter(String),
    Derive {
        name: String,
        expr: String,
    },
    Select(Vec<String>),
    GroupBy {
        dims: Vec<String>,
        aggs: Vec<(String, String, String)>,
    }, // (func, col, alias)
    Sort {
        key: String,
        desc: bool,
    },
    Limit(usize),
    /// Drop rows with nulls in the named columns (all columns if empty).
    DropNa(Vec<String>),
    /// Remove duplicate rows.
    Dedup,
    /// Rename a column.
    Rename {
        from: String,
        to: String,
    },
}

const AGGS: &[&str] = &["sum", "avg", "count", "count_distinct", "min", "max"];

fn ident_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses a dscript program.
fn parse(program: &str) -> Result<Vec<Step>, SandboxError> {
    let mut steps = Vec::new();
    for (i, raw) in program.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: &str| SandboxError::Parse {
            line: lineno,
            message: message.into(),
        };
        let (op, rest) = line.split_once(' ').unwrap_or((line, ""));
        match op {
            "load" => {
                let t = rest.trim();
                if !ident_ok(t) {
                    return Err(err("load expects a table name"));
                }
                steps.push(Step::Load(t.to_string()));
            }
            "filter" => {
                let cond = parse_filter(rest.trim()).ok_or_else(|| err("bad filter condition"))?;
                steps.push(Step::Filter(cond));
            }
            "derive" => {
                let (name, expr) = rest
                    .split_once('=')
                    .ok_or_else(|| err("derive expects name = expr"))?;
                let name = name.trim();
                let expr = expr.trim();
                if !ident_ok(name) || expr.is_empty() {
                    return Err(err("derive expects name = expr"));
                }
                steps.push(Step::Derive {
                    name: name.to_string(),
                    expr: expr.to_string(),
                });
            }
            "select" => {
                let cols: Vec<String> = rest.split(',').map(|c| c.trim().to_string()).collect();
                if cols.is_empty() || cols.iter().any(|c| !ident_ok(c)) {
                    return Err(err("select expects a column list"));
                }
                steps.push(Step::Select(cols));
            }
            "groupby" => {
                let (dims_part, aggs_part) = rest
                    .split_once(':')
                    .ok_or_else(|| err("groupby expects dims: aggs"))?;
                let dims: Vec<String> = dims_part
                    .split(',')
                    .map(|d| d.trim().to_string())
                    .filter(|d| !d.is_empty())
                    .collect();
                if dims.iter().any(|d| !ident_ok(d)) {
                    return Err(err("bad dimension name"));
                }
                let mut aggs = Vec::new();
                for part in aggs_part.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    let open = part
                        .find('(')
                        .ok_or_else(|| err("aggregate needs func(col)"))?;
                    let close = part
                        .find(')')
                        .ok_or_else(|| err("aggregate needs func(col)"))?;
                    if close < open {
                        return Err(err("aggregate needs func(col)"));
                    }
                    let func = part[..open].trim().to_lowercase();
                    if !AGGS.contains(&func.as_str()) {
                        return Err(err(&format!("unknown aggregate '{func}'")));
                    }
                    let col = part[open + 1..close].trim().to_string();
                    if col != "*" && !ident_ok(&col) {
                        return Err(err("bad aggregate column"));
                    }
                    let alias = match part[close + 1..].trim().strip_prefix("as ") {
                        Some(a) if ident_ok(a.trim()) => a.trim().to_string(),
                        Some(_) => return Err(err("bad alias")),
                        None => format!("{}_{}", func, col.replace('*', "all")),
                    };
                    aggs.push((func, col, alias));
                }
                if aggs.is_empty() {
                    return Err(err("groupby needs at least one aggregate"));
                }
                steps.push(Step::GroupBy { dims, aggs });
            }
            "sort" => {
                let mut parts = rest.split_whitespace();
                let key = parts.next().unwrap_or("").to_string();
                if !ident_ok(&key) {
                    return Err(err("sort expects a column"));
                }
                let desc = match parts.next() {
                    None => false,
                    Some("desc") => true,
                    Some("asc") => false,
                    Some(other) => return Err(err(&format!("unknown sort direction '{other}'"))),
                };
                steps.push(Step::Sort { key, desc });
            }
            "limit" | "head" => {
                let n = rest
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| err("limit expects a non-negative integer"))?;
                steps.push(Step::Limit(n));
            }
            "dropna" => {
                let cols: Vec<String> = rest
                    .split(',')
                    .map(|c| c.trim().to_string())
                    .filter(|c| !c.is_empty())
                    .collect();
                if cols.iter().any(|c| !ident_ok(c)) {
                    return Err(err("dropna expects column names"));
                }
                steps.push(Step::DropNa(cols));
            }
            "dedup" | "distinct" => {
                if !rest.trim().is_empty() {
                    return Err(err("dedup takes no arguments"));
                }
                steps.push(Step::Dedup);
            }
            "rename" => {
                let mut parts = rest.split_whitespace();
                match (parts.next(), parts.next(), parts.next()) {
                    (Some(from), Some(to), None) if ident_ok(from) && ident_ok(to) => {
                        steps.push(Step::Rename {
                            from: from.to_string(),
                            to: to.to_string(),
                        });
                    }
                    _ => return Err(err("rename expects: rename <from> <to>")),
                }
            }
            other => return Err(err(&format!("unknown operation '{other}'"))),
        }
    }
    match steps.first() {
        Some(Step::Load(_)) => Ok(steps),
        _ => Err(SandboxError::Parse {
            line: 1,
            message: "program must start with load".into(),
        }),
    }
}

fn parse_filter(cond: &str) -> Option<String> {
    // col between 'a' 'b'
    if let Some((col, rest)) = cond.split_once(" between ") {
        let col = col.trim();
        if !ident_ok(col) {
            return None;
        }
        // Operands: quoted strings or bare numbers.
        let vals: Vec<String> = if rest.contains('\'') {
            rest.trim()
                .split('\'')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect()
        } else {
            rest.split_whitespace().map(String::from).collect()
        };
        if vals.len() != 2 {
            return None;
        }
        let render = |v: &str| {
            if v.parse::<f64>().is_ok() {
                v.to_string()
            } else {
                format!("'{v}'")
            }
        };
        return Some(format!(
            "{col} BETWEEN {} AND {}",
            render(&vals[0]),
            render(&vals[1])
        ));
    }
    for op in ["==", "!=", ">=", "<=", ">", "<"] {
        if let Some((col, val)) = cond.split_once(op) {
            let col = col.trim();
            let val = val.trim();
            if !ident_ok(col) || val.is_empty() {
                continue;
            }
            let sql_op = match op {
                "==" => "=",
                "!=" => "<>",
                o => o,
            };
            let quoted = val.starts_with('\'') && val.ends_with('\'') && val.len() >= 2;
            if !quoted && val.parse::<f64>().is_err() {
                return None;
            }
            let sql_val = val.to_string();
            return Some(format!("{col} {sql_op} {sql_val}"));
        }
    }
    None
}

/// Executes a dscript program against a database, returning the resulting
/// frame. Each step materialises; relational steps compile onto the SQL
/// engine, data-preparation steps run directly on the frame.
pub fn run_dscript(program: &str, db: &Database) -> Result<DataFrame, SandboxError> {
    let steps = parse(program)?;
    let exec_err = |e: &dyn std::fmt::Display| SandboxError::Exec(e.to_string());
    let mut current: Option<DataFrame> = None;
    for step in steps {
        let next = match step {
            Step::Load(t) => db.get(&t).map_err(|e| exec_err(&e))?.clone(),
            other => {
                let frame = current
                    .ok_or_else(|| SandboxError::Exec("pipeline step before load".into()))?;
                apply_step(other, frame).map_err(SandboxError::Exec)?
            }
        };
        current = Some(next);
    }
    current.ok_or_else(|| SandboxError::Exec("empty pipeline".into()))
}

/// Runs one relational step by wrapping the working frame as `__cur` and
/// executing single-step SQL, or applies a frame-level preparation op.
fn apply_step(step: Step, frame: DataFrame) -> Result<DataFrame, String> {
    let one_step_sql = |frame: DataFrame, sql: String| -> Result<DataFrame, String> {
        let mut tmp = Database::new();
        tmp.insert("__cur", frame);
        run_sql(&sql, &tmp).map_err(|e| e.to_string())
    };
    match step {
        Step::Load(_) => unreachable!("handled by caller"),
        Step::Filter(cond) => one_step_sql(frame, format!("SELECT * FROM __cur WHERE {cond}")),
        Step::Derive { name, expr } => {
            one_step_sql(frame, format!("SELECT *, {expr} AS {name} FROM __cur"))
        }
        Step::Select(cols) => one_step_sql(frame, format!("SELECT {} FROM __cur", cols.join(", "))),
        Step::GroupBy { dims, aggs } => {
            let mut items: Vec<String> = dims.clone();
            for (func, col, alias) in aggs {
                let rendered = match func.as_str() {
                    "count_distinct" => format!("COUNT(DISTINCT {col}) AS {alias}"),
                    "count" if col == "*" => format!("COUNT(*) AS {alias}"),
                    f => format!("{}({col}) AS {alias}", f.to_uppercase()),
                };
                items.push(rendered);
            }
            let mut q = format!("SELECT {} FROM __cur", items.join(", "));
            if !dims.is_empty() {
                q.push_str(&format!(" GROUP BY {}", dims.join(", ")));
            }
            one_step_sql(frame, q)
        }
        Step::Sort { key, desc } => one_step_sql(
            frame,
            format!(
                "SELECT * FROM __cur ORDER BY {key}{}",
                if desc { " DESC" } else { "" }
            ),
        ),
        Step::Limit(n) => Ok(frame.limit(n)),
        Step::DropNa(cols) => {
            let targets: Vec<usize> = if cols.is_empty() {
                (0..frame.n_cols()).collect()
            } else {
                cols.iter()
                    .map(|c| frame.schema().require(c).map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?
            };
            Ok(frame.filter(|i| targets.iter().all(|&c| !frame.column_at(c)[i].is_null())))
        }
        Step::Dedup => Ok(frame.distinct()),
        Step::Rename { from, to } => frame.rename(&from, &to).map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalab_frame::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(
            "sales",
            DataFrame::from_columns(vec![
                (
                    "region",
                    DataType::Str,
                    vec!["east".into(), "west".into(), "east".into()],
                ),
                (
                    "amount",
                    DataType::Int,
                    vec![10.into(), 20.into(), 30.into()],
                ),
                ("cost", DataType::Int, vec![5.into(), 8.into(), 9.into()]),
            ])
            .unwrap(),
        );
        db
    }

    #[test]
    fn full_pipeline() {
        let program = "load sales\nfilter amount > 5\nderive profit = amount - cost\n\
                       groupby region: sum(profit) as sum_profit, count(*) as n\n\
                       sort sum_profit desc\nlimit 1";
        let out = run_dscript(program, &db()).unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.column("region").unwrap()[0], Value::Str("east".into()));
        assert_eq!(out.column("sum_profit").unwrap()[0], Value::Int(26));
        assert_eq!(out.column("n").unwrap()[0], Value::Int(2));
    }

    #[test]
    fn string_and_between_filters() {
        let out = run_dscript("load sales\nfilter region == 'east'", &db()).unwrap();
        assert_eq!(out.n_rows(), 2);
        let out2 = run_dscript("load sales\nfilter amount between '15' '25'", &db()).unwrap();
        assert_eq!(out2.n_rows(), 1);
    }

    #[test]
    fn global_aggregate_without_dims() {
        let out = run_dscript("load sales\ngroupby : avg(amount) as m", &db()).unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.column("m").unwrap()[0], Value::Float(20.0));
    }

    #[test]
    fn select_projects() {
        let out = run_dscript("load sales\nselect region, amount", &db()).unwrap();
        assert_eq!(out.schema().names(), vec!["region", "amount"]);
    }

    #[test]
    fn parse_errors_are_line_numbered() {
        let e = run_dscript("load sales\ngroupby : !!", &db()).unwrap_err();
        assert!(matches!(e, SandboxError::Parse { line: 2, .. }), "{e}");
        let e2 = run_dscript("filter x > 1", &db()).unwrap_err();
        assert!(matches!(e2, SandboxError::Parse { line: 1, .. }));
        let e3 = run_dscript("load sales\nexplode everything", &db()).unwrap_err();
        assert!(e3.to_string().contains("unknown operation"));
    }

    #[test]
    fn exec_errors_for_missing_things() {
        assert!(matches!(
            run_dscript("load nope", &db()),
            Err(SandboxError::Exec(_))
        ));
        assert!(matches!(
            run_dscript("load sales\nfilter nope > 1", &db()),
            Err(SandboxError::Exec(_))
        ));
    }

    #[test]
    fn data_prep_ops() {
        let mut db = Database::new();
        db.insert(
            "m",
            DataFrame::from_columns(vec![
                (
                    "a",
                    DataType::Int,
                    vec![1.into(), Value::Null, 1.into(), 2.into()],
                ),
                (
                    "b",
                    DataType::Str,
                    vec!["x".into(), "y".into(), "x".into(), Value::Null],
                ),
            ])
            .unwrap(),
        );
        let out = run_dscript(
            "load m
dropna
dedup
rename a first_col",
            &db,
        )
        .unwrap();
        assert_eq!(out.n_rows(), 1); // (1, x) after dropna+dedup
        assert_eq!(out.schema().names(), vec!["first_col", "b"]);
        // Column-scoped dropna.
        let out2 = run_dscript(
            "load m
dropna a",
            &db,
        )
        .unwrap();
        assert_eq!(out2.n_rows(), 3);
        // head is an alias for limit.
        let out3 = run_dscript(
            "load m
head 2",
            &db,
        )
        .unwrap();
        assert_eq!(out3.n_rows(), 2);
        // Errors.
        assert!(run_dscript(
            "load m
rename nope x",
            &db
        )
        .is_err());
        assert!(run_dscript(
            "load m
dedup everything",
            &db
        )
        .is_err());
        assert!(run_dscript(
            "load m
dropna 9bad",
            &db
        )
        .is_err());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let out = run_dscript("# pipeline\nload sales\n\n# the end", &db()).unwrap();
        assert_eq!(out.n_rows(), 3);
    }

    /// A DSL spec's two rule-based compilations return the same frame:
    /// its dscript through the sandbox and its SQL through the engine,
    /// for numeric `between` bounds and for a string operand holding `'`.
    #[test]
    fn dsl_dscript_and_sql_compilations_agree() {
        let mut db = db();
        db.insert(
            "notes",
            DataFrame::from_columns(vec![
                ("note", DataType::Str, vec!["it's".into(), "its".into()]),
                ("n", DataType::Int, vec![1.into(), 2.into()]),
            ])
            .unwrap(),
        );
        for text in [
            r#"{"ConditionList":[{"table":"sales","column":"amount","op":"between","value":[-3,25.50]}],
                "ProjectionList":[{"table":"sales","column":"region"},{"table":"sales","column":"amount"}]}"#,
            r#"{"ConditionList":[{"table":"notes","column":"note","op":"=","value":"it's"}],
                "ProjectionList":[{"table":"notes","column":"n"}]}"#,
        ] {
            let spec = datalab_knowledge::validate_dsl_json(text).expect("valid spec");
            let script = spec.to_dscript();
            let via_dscript = run_dscript(&script, &db).unwrap_or_else(|e| panic!("{script}\n{e}"));
            let via_sql = run_sql(&spec.to_sql(None), &db).expect("SQL runs");
            assert_eq!(via_dscript, via_sql, "{script}");
            assert!(via_sql.n_rows() > 0, "{script}");
        }
    }
}
