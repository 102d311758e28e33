//! The `DataLab` platform façade.

use datalab_agents::{CommunicationConfig, ProxyAgent, SharedBuffer};
use datalab_frame::{DataFrame, FrameError, Value};
use datalab_knowledge::{
    generate_table_knowledge_traced, incorporate_traced, profile_table, GenerationConfig,
    GenerationReport, IncorporateConfig, IndexTask, JargonEntry, KnowledgeGraph, KnowledgeIndex,
    Lineage, NodeKind, Script, TableKnowledge,
};
use datalab_llm::{
    BreakerConfig, BreakerState, ChaosConfig, ChaosLlm, LanguageModel, ModelProfile, ResilientLlm,
    RetryPolicy, SimLlm,
};
use datalab_notebook::{CellDag, CellKind, Notebook};
use datalab_sql::Database;
use datalab_telemetry::{is_error_kind, Event, EventKind, QuerySummary, RequestContext, Telemetry};
use datalab_viz::RenderedChart;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::recorder::{FleetReport, ResilienceStats, RunRecord, RunRecorder};

/// The task the session's retrieval index serves (grounding into DSL).
const INDEX_TASK: IndexTask = IndexTask::Nl2Dsl;

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct DataLabConfig {
    /// Foundation-model capability profile.
    pub model: ModelProfile,
    /// Inter-agent communication settings (Table III ablations).
    pub communication: CommunicationConfig,
    /// Knowledge utilization settings (Table II ablations).
    pub incorporate: IncorporateConfig,
    /// Knowledge generation settings (Algorithm 1).
    pub generation: GenerationConfig,
    /// "Today" for temporal query standardisation.
    pub current_date: String,
    /// Whether each query pushes a [`RunRecord`] into the session's
    /// [`RunRecorder`]. Bench fleets keep this on; long-lived serving
    /// sessions turn it off so per-query records cannot accumulate
    /// without bound (the serving layer aggregates into its own metrics
    /// instead).
    pub record_runs: bool,
    /// Fault injection for the model transport. `None` (the default)
    /// leaves the transport a bit-identical passthrough; chaos fleets set
    /// rates here to exercise the resilience machinery.
    pub chaos: Option<ChaosConfig>,
    /// Retry/backoff/deadline policy for the resilient transport.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds for the resilient transport.
    pub breaker: BreakerConfig,
}

impl Default for DataLabConfig {
    fn default() -> Self {
        DataLabConfig {
            model: ModelProfile::gpt4(),
            communication: CommunicationConfig::default(),
            incorporate: IncorporateConfig::default(),
            generation: GenerationConfig::default(),
            current_date: "2026-07-06".to_string(),
            record_runs: true,
            chaos: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// What one `query` call produced.
#[derive(Debug, Clone)]
pub struct DataLabResponse {
    /// Final synthesised answer.
    pub answer: String,
    /// The rewritten (clarified) query.
    pub rewritten_query: String,
    /// The execution plan (agent roles, in order).
    pub plan: Vec<String>,
    /// The last produced data frame, if any.
    pub frame: Option<DataFrame>,
    /// The last rendered chart, if any.
    pub chart: Option<RenderedChart>,
    /// DSL JSON the grounding stage produced (empty if skipped).
    pub dsl_json: String,
    /// Whether every subtask completed.
    pub success: bool,
    /// Notebook cells appended by this query (ids in notebook order).
    pub new_cells: Vec<datalab_notebook::CellId>,
    /// Observability summary for this query: the span tree, per-stage /
    /// per-agent token attribution, and exporters (Chrome trace, JSON,
    /// human-readable rendering).
    pub telemetry: QuerySummary,
    /// Flight record: every event the recorder retained for this query,
    /// attached only when the query failed (empty on success). Render
    /// with [`datalab_telemetry::render_flight_record`].
    pub flight_record: Vec<Event>,
    /// True when at least one pipeline stage was served by a rule-based
    /// degradation path because the model transport was down. The answer
    /// is still structured and safe to display, but was produced without
    /// the model.
    pub degraded: bool,
    /// Transport-resilience counters observed during this query: faults,
    /// retries, breaker trips, degradations.
    pub resilience: ResilienceStats,
}

/// What one applied ingest batch did to a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Rows added as new rows.
    pub appended: usize,
    /// Existing rows replaced via the key column (upsert mode only).
    pub updated: usize,
    /// True when the batch's idempotency key had already been applied:
    /// the call was a retry and nothing changed.
    pub deduplicated: bool,
    /// Notebook cells whose results went stale because they reference
    /// the ingested table (directly or transitively), notebook order.
    pub invalidated_cells: Vec<datalab_notebook::CellId>,
}

/// The unified BI platform.
pub struct DataLab {
    config: DataLabConfig,
    llm: Arc<SimLlm>,
    /// The fault-tolerant model path the agent pipeline calls through:
    /// retries + circuit breaker over the (optionally chaotic) backend.
    transport: ResilientLlm<ChaosLlm<Arc<SimLlm>>>,
    db: Database,
    graph: KnowledgeGraph,
    /// Retrieval index over `graph`, extended as knowledge is appended.
    index: KnowledgeIndex,
    knowledge: BTreeMap<String, TableKnowledge>,
    notebook: Notebook,
    dag: CellDag,
    history: Vec<String>,
    /// Idempotency keys of every ingest batch applied to this session.
    /// Sorted so exports are deterministic.
    ingest_keys: BTreeSet<String>,
    /// Rendered §IV-C profile of each table, keyed by catalog name and
    /// kept current with the table's data.
    profiles: BTreeMap<String, String>,
    session_buffer: SharedBuffer,
    telemetry: Telemetry,
    recorder: RunRecorder,
}

impl DataLab {
    /// Creates an empty platform.
    pub fn new(config: DataLabConfig) -> Self {
        let llm = Arc::new(SimLlm::new(config.model.clone()));
        let telemetry = Telemetry::new();
        // Every model call now lands in the attribution ledger and the
        // metrics registry, whichever layer triggered it.
        llm.attach_telemetry(telemetry.clone());
        // The agent pipeline calls the model through the resilient
        // transport: chaos (disabled unless configured) under bounded
        // retries and a circuit breaker. With chaos off the stack is a
        // bit-identical passthrough over the shared backend.
        let chaos = config
            .chaos
            .clone()
            .unwrap_or_else(|| ChaosConfig::disabled(7));
        let transport = ResilientLlm::new(
            ChaosLlm::new(Arc::clone(&llm), chaos),
            config.retry.clone(),
            config.breaker.clone(),
        );
        transport.attach_telemetry(telemetry.clone());
        let notebook = Notebook::new();
        let dag = CellDag::build(&notebook);
        DataLab {
            config,
            llm,
            transport,
            db: Database::new(),
            graph: KnowledgeGraph::new(),
            index: KnowledgeIndex::new(INDEX_TASK),
            knowledge: BTreeMap::new(),
            notebook,
            dag,
            history: Vec::new(),
            ingest_keys: BTreeSet::new(),
            profiles: BTreeMap::new(),
            session_buffer: SharedBuffer::default(),
            telemetry,
            recorder: RunRecorder::new(),
        }
    }

    /// Increments `platform.errors.<kind>` and records a
    /// [`EventKind::PlatformError`] flight-recorder event.
    fn note_platform_error(&self, kind: &str, detail: &str) {
        self.telemetry
            .metrics()
            .incr(&format!("platform.errors.{kind}"), 1);
        self.telemetry
            .record_event(EventKind::PlatformError, detail);
    }

    /// Registers a data table and profiles it (the §IV-C fallback, so
    /// in-the-wild tables are groundable immediately). Accepts an owned
    /// frame or an `Arc<DataFrame>` — fleet runners registering one
    /// source table with many sessions share the allocation instead of
    /// deep-copying the columns per session.
    pub fn register_table(
        &mut self,
        name: &str,
        df: impl Into<Arc<DataFrame>>,
    ) -> Result<(), FrameError> {
        let df = df.into();
        let name = self.catalog_name(name);
        self.profile(&name, &df)?;
        self.db.insert(name, df);
        Ok(())
    }

    /// The catalog's spelling of a table name (a re-registration keeps
    /// the first one), or `name` itself for a new table.
    fn catalog_name(&self, name: &str) -> String {
        self.db
            .table_names()
            .iter()
            .find(|n| n.eq_ignore_ascii_case(name))
            .cloned()
            .unwrap_or_else(|| name.to_string())
    }

    /// Profiles a table's current data under its catalog name, replacing
    /// its earlier profile: a re-registered or ingested table is
    /// described as it is now, the same way a session restored from a
    /// snapshot of it would be.
    fn profile(&mut self, name: &str, df: &DataFrame) -> Result<(), FrameError> {
        let profiled = profile_table(&self.llm, name, df)?;
        self.profiles.insert(name.to_string(), profiled.render());
        Ok(())
    }

    /// Every table's profile, in catalog order.
    fn profile_section(&self) -> String {
        self.db
            .table_names()
            .iter()
            .filter_map(|name| self.profiles.get(name))
            .map(String::as_str)
            .collect()
    }

    /// Registers a table from CSV text (types inferred), profiling it like
    /// [`DataLab::register_table`].
    pub fn register_csv(&mut self, name: &str, csv_text: &str) -> Result<(), FrameError> {
        let result =
            datalab_frame::csv::from_csv(csv_text).and_then(|df| self.register_table(name, df));
        if let Err(e) = &result {
            self.note_platform_error("csv_register", &format!("register_csv {name}: {e}"));
        }
        result
    }

    /// True when an ingest batch with this idempotency key has already
    /// been applied to the session — a retry that must not re-apply.
    pub fn ingest_seen(&self, idempotency_key: &str) -> bool {
        self.ingest_keys.contains(idempotency_key)
    }

    /// Validates an ingest batch without applying it: the table must
    /// exist, the CSV must parse against its schema, and the key column
    /// (if any) must name one of its columns. The serving layer calls
    /// this *before* committing the batch to the WAL so that a record,
    /// once durable, always applies.
    pub fn validate_ingest(
        &self,
        table: &str,
        csv_text: &str,
        key_column: Option<&str>,
    ) -> Result<(), FrameError> {
        self.parse_ingest(table, csv_text, key_column).map(|_| ())
    }

    /// Parses and checks a batch against the live table, returning the
    /// typed rows and the key column's index.
    fn parse_ingest(
        &self,
        table: &str,
        csv_text: &str,
        key_column: Option<&str>,
    ) -> Result<(DataFrame, Option<usize>), FrameError> {
        let existing = self
            .db
            .get(table)
            .map_err(|_| FrameError::Invalid(format!("unknown table `{table}`")))?;
        let batch = datalab_frame::csv::from_csv_with_schema(csv_text, existing.schema())?;
        if batch.n_rows() == 0 {
            return Err(FrameError::Csv("batch contains no data rows".into()));
        }
        let key_idx = match key_column {
            Some(k) => Some(
                existing
                    .schema()
                    .fields()
                    .iter()
                    .position(|f| f.name.eq_ignore_ascii_case(k))
                    .ok_or_else(|| FrameError::ColumnNotFound(k.to_string()))?,
            ),
            None => None,
        };
        Ok((batch, key_idx))
    }

    /// Applies one ingest batch to a registered table: plain append, or
    /// upsert when `key_column` is given (an existing row whose key
    /// value matches a batch row is replaced in place; unmatched batch
    /// rows append in order; when a batch repeats a key, its last row
    /// wins). The batch is all-or-nothing — validation failures change
    /// nothing — and idempotent: a key in [`DataLab::ingest_seen`]
    /// returns a `deduplicated` outcome without touching the table.
    /// Cells referencing the table (and their descendants) are reported
    /// stale and counted under `dag.invalidated`.
    pub fn ingest_rows(
        &mut self,
        table: &str,
        csv_text: &str,
        key_column: Option<&str>,
        idempotency_key: &str,
    ) -> Result<IngestOutcome, FrameError> {
        if self.ingest_seen(idempotency_key) {
            self.telemetry.metrics().incr("ingest.deduplicated", 1);
            return Ok(IngestOutcome {
                appended: 0,
                updated: 0,
                deduplicated: true,
                invalidated_cells: Vec::new(),
            });
        }
        let parsed = self.parse_ingest(table, csv_text, key_column);
        let (batch, key_idx) = match parsed {
            Ok(v) => v,
            Err(e) => {
                self.note_platform_error("ingest", &format!("ingest {table}: {e}"));
                return Err(e);
            }
        };
        let existing = self
            .db
            .get_shared(table)
            .map_err(|_| FrameError::Invalid(format!("unknown table `{table}`")))?;
        let take_row = |df: &DataFrame, i: usize| -> Vec<Value> {
            (0..df.n_cols())
                .map(|c| df.column_at(c)[i].clone())
                .collect()
        };
        let mut merged = DataFrame::new(existing.schema().clone());
        let (mut appended, mut updated) = (0usize, 0usize);
        match key_idx {
            None => {
                for i in 0..existing.n_rows() {
                    merged.push_row(take_row(&existing, i))?;
                }
                for i in 0..batch.n_rows() {
                    merged.push_row(take_row(&batch, i))?;
                    appended += 1;
                }
            }
            Some(k) => {
                // Keys compare by rendered value, so `1` matches `1`
                // whether the column is Int or Str.
                let mut winner: BTreeMap<String, usize> = BTreeMap::new();
                for i in 0..batch.n_rows() {
                    winner.insert(batch.column_at(k)[i].render(), i);
                }
                let mut consumed: BTreeSet<usize> = BTreeSet::new();
                for i in 0..existing.n_rows() {
                    let key = existing.column_at(k)[i].render();
                    match winner.get(&key) {
                        Some(&bi) => {
                            merged.push_row(take_row(&batch, bi))?;
                            consumed.insert(bi);
                            updated += 1;
                        }
                        None => merged.push_row(take_row(&existing, i))?,
                    }
                }
                for i in 0..batch.n_rows() {
                    let key = batch.column_at(k)[i].render();
                    if winner.get(&key) == Some(&i) && !consumed.contains(&i) {
                        merged.push_row(take_row(&batch, i))?;
                        appended += 1;
                    }
                }
            }
        }
        let name = self.catalog_name(table);
        self.profile(&name, &merged)?;
        self.db.insert(table, merged);
        let invalidated_cells = self.dag.invalidated_by(&self.notebook, table);
        let m = self.telemetry.metrics();
        m.incr("ingest.batches", 1);
        m.incr("ingest.rows_appended", appended as u64);
        m.incr("ingest.rows_updated", updated as u64);
        m.incr("dag.invalidated", invalidated_cells.len() as u64);
        self.telemetry.record_event(
            EventKind::IngestBatch,
            format!(
                "{table}: {appended} appended, {updated} updated, {} cells stale",
                invalidated_cells.len()
            ),
        );
        self.ingest_keys.insert(idempotency_key.to_string());
        Ok(IngestOutcome {
            appended,
            updated,
            deduplicated: false,
            invalidated_cells,
        })
    }

    /// The applied ingest idempotency keys, sorted (persistence export).
    pub fn export_ingest_keys(&self) -> Vec<String> {
        self.ingest_keys.iter().cloned().collect()
    }

    /// Restores the applied-key set exported by
    /// [`DataLab::export_ingest_keys`]. Replaying a WAL that holds two
    /// records with the same key (a crash between append and
    /// acknowledgement, then a client retry) applies exactly one.
    pub(crate) fn restore_ingest_keys(&mut self, keys: Vec<String>) {
        self.ingest_keys = keys.into_iter().collect();
    }

    /// Serialises the knowledge graph to JSON (for persistence across
    /// sessions; the paper's deployment regenerates knowledge daily and
    /// serves it from storage). Encoding cannot fail, so this is always
    /// `Ok`; the `Result` keeps the signature callers already handle.
    pub fn export_knowledge(&self) -> Result<String, datalab_json::Error> {
        Ok(datalab_json::to_string(&self.graph))
    }

    /// Restores a knowledge graph exported by
    /// [`DataLab::export_knowledge`] and rebuilds the retrieval index.
    pub fn import_knowledge(&mut self, json: &str) -> Result<(), datalab_json::Error> {
        match datalab_json::from_str(json) {
            Ok(graph) => {
                // The one full build: an imported graph replaces the
                // current one instead of appending to it.
                self.graph = graph;
                self.index = KnowledgeIndex::build(&self.graph, INDEX_TASK);
                Ok(())
            }
            Err(e) => {
                self.note_platform_error("knowledge_import", &format!("import_knowledge: {e}"));
                Err(e)
            }
        }
    }

    /// Serialises the notebook to JSON.
    pub fn export_notebook(&self) -> String {
        datalab_json::to_string(&self.notebook)
    }

    /// Restores a notebook exported by [`DataLab::export_notebook`] and
    /// rebuilds its dependency DAG.
    pub fn import_notebook(&mut self, json: &str) -> Result<(), datalab_json::Error> {
        match datalab_json::from_str(json) {
            Ok(notebook) => {
                self.notebook = notebook;
                self.dag = CellDag::build(&self.notebook);
                Ok(())
            }
            Err(e) => {
                self.note_platform_error("notebook_import", &format!("import_notebook: {e}"));
                Err(e)
            }
        }
    }

    /// Ingests a table's script history and lineage, running Algorithm 1
    /// knowledge generation and indexing the nodes it appends.
    pub fn ingest_scripts(
        &mut self,
        table: &str,
        scripts: &[Script],
        lineage: &Lineage,
    ) -> GenerationReport {
        let schema_line = self.schema_section();
        let (tk, report) = generate_table_knowledge_traced(
            &self.llm,
            table,
            &schema_line,
            scripts,
            lineage,
            &self.knowledge,
            &self.config.generation,
            &self.telemetry,
        );
        self.graph.ingest_table("default", &tk);
        self.knowledge.insert(table.to_lowercase(), tk);
        self.index.extend(&self.graph);
        report
    }

    /// Adds a jargon glossary entry.
    pub fn add_jargon(&mut self, term: &str, expansion: &str) {
        self.graph.ingest_jargon(&JargonEntry {
            term: term.into(),
            expansion: expansion.into(),
        });
        self.index.extend(&self.graph);
    }

    /// Adds a curated value alias (e.g. `TencentBI` → `prod_class4_name =
    /// 'Tencent BI'`).
    pub fn add_value_alias(&mut self, term: &str, table: &str, column: &str, value: &str) {
        let name = format!("{table}.{column}={value}");
        let v = self.graph.find(NodeKind::Value, &name).unwrap_or_else(|| {
            self.graph
                .ingest_value(table, column, value, "curated value")
        });
        self.graph.add_alias(term, v);
        self.index.extend(&self.graph);
    }

    /// The schema prompt section for all registered tables.
    pub fn schema_section(&self) -> String {
        let mut s = String::new();
        for name in self.db.table_names() {
            if let Ok(df) = self.db.get(name) {
                let cols: Vec<String> = df
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| format!("{} ({})", f.name, f.dtype))
                    .collect();
                s.push_str(&format!("table {name}: {}\n", cols.join(", ")));
            }
        }
        s
    }

    /// Read access to the catalog.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The session's rewritten-query history, oldest first (part of
    /// [`DataLab::durable_state`]).
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// Replaces the rewritten-query history (the restore path of
    /// [`DataLab::recover`]). History feeds the multi-round rewrite
    /// stage, so restoring it keeps follow-up queries ("what about west")
    /// resolving the same way they would have in the original session.
    pub(crate) fn restore_history(&mut self, history: Vec<String>) {
        self.history = history;
    }

    /// Every registered table as `(name, csv_text)` in registration
    /// order. Re-registering the CSVs via [`DataLab::register_csv`]
    /// reproduces the catalog *and* the profile lines (profiling is
    /// deterministic), so a snapshot needs no separate profile state.
    pub fn export_tables(&self) -> Vec<(String, String)> {
        self.db
            .table_names()
            .iter()
            .filter_map(|name| {
                let df = self.db.get(name).ok()?;
                Some((name.clone(), datalab_frame::csv::to_csv(df)))
            })
            .collect()
    }

    /// Read access to the knowledge graph.
    pub fn knowledge_graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Read access to the notebook.
    pub fn notebook(&self) -> &Notebook {
        &self.notebook
    }

    /// Read access to the cell-dependency DAG.
    pub fn dag(&self) -> &CellDag {
        &self.dag
    }

    /// Total LLM tokens consumed so far.
    pub fn tokens_used(&self) -> u64 {
        self.usage_meter().map(|m| m.total_tokens()).unwrap_or(0)
    }

    /// The platform-wide telemetry handle (shared with the model, agents
    /// and knowledge layers). Use it to read counters, histograms, and
    /// cumulative token attribution across queries.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn usage_meter(&self) -> Option<&datalab_llm::TokenMeter> {
        self.llm.meter()
    }

    /// Handles one NL query end to end (the Fig. 2 workflow): knowledge
    /// incorporation ①, multi-agent execution with structured
    /// communication ②, and notebook/context maintenance ③.
    ///
    /// The run is recorded under the `adhoc` workload label; use
    /// [`DataLab::query_as`] to label workload-driven runs.
    pub fn query(&mut self, question: &str) -> DataLabResponse {
        self.query_as("adhoc", question)
    }

    /// Like [`DataLab::query`], but records the run under an explicit
    /// workload label (`nl2sql`, `nl2vis`, …) so [`DataLab::fleet_report`]
    /// can break statistics down per workload.
    pub fn query_as(&mut self, workload: &str, question: &str) -> DataLabResponse {
        self.query_with_context(&RequestContext::untraced(), workload, question)
    }

    /// Like [`DataLab::query_as`], but threads a per-request
    /// [`RequestContext`]. While the query runs, the context's trace ID
    /// (if any) tags every event, every stage/agent span, and the root
    /// span, so the request can be reassembled end to end from the trace
    /// store — including the transport's fault/retry/breaker markers.
    pub fn query_with_context(
        &mut self,
        ctx: &RequestContext,
        workload: &str,
        question: &str,
    ) -> DataLabResponse {
        // Discard spans left over from setup work (registration, script
        // ingestion) so this query's trace has exactly one root, then
        // snapshot attribution so the summary reports only this query.
        self.telemetry.drain_trace();
        let attribution_baseline = self.telemetry.attribution();
        // Activate this request's trace for the duration of the query.
        // Sessions serve one query at a time, so setting the shared slot
        // (rather than threading the ID through every call) is safe; it
        // is unconditionally reassigned here so a stale trace from an
        // earlier panicked query can never leak onto this one.
        self.telemetry.set_trace(ctx.trace_id().cloned());
        // Mark the event log so the flight record covers exactly this
        // query, and baseline the kind counts for the error taxonomy.
        let event_mark = self.telemetry.events().total_recorded();
        let error_baseline = self.telemetry.events().kind_counts();
        self.telemetry
            .record_event(EventKind::QueryStart, question.to_string());
        let root = self.telemetry.span("query");
        root.attr("question", question);

        // ① Domain knowledge incorporation.
        let schema = self.schema_section();
        let schema_plus = format!("{schema}{}", self.profile_section());
        // Without knowledge the graph is empty and grounding falls back
        // to profiling alone.
        let grounding = incorporate_traced(
            &self.llm,
            &self.graph,
            &self.index,
            &schema_plus,
            question,
            &self.history,
            &self.config.current_date,
            &self.config.incorporate,
            &self.telemetry,
        );

        // ② Multi-agent execution over the shared buffer. Agents call the
        // model through the resilient transport, so injected faults are
        // retried, breaker-gated, and — when terminal — degraded to
        // rule-based fallbacks instead of surfacing garbage.
        let proxy = ProxyAgent::new(&self.transport, self.config.communication.clone())
            .with_telemetry(self.telemetry.clone());
        let outcome = proxy.run_query_with_buffer(
            &self.db,
            &schema_plus,
            &grounding.knowledge_lines,
            &grounding.rewritten_query,
            &self.config.current_date,
            &self.session_buffer,
        );

        // One structured marker per degraded query: which roles/stages the
        // rule-based fallbacks served. Flows into the error taxonomy and
        // the flight record.
        let degraded = !outcome.degraded_roles.is_empty();
        if degraded {
            self.telemetry
                .record_event(EventKind::Degraded, outcome.degraded_roles.join(","));
        }

        // ③ Reflect results into the notebook and maintain the DAG.
        let notebook_stage = self.telemetry.stage("notebook");
        let mut new_cells = Vec::new();
        for unit in &outcome.units {
            match unit.content {
                datalab_agents::Content::Table(ref text) => {
                    if let Some(sql) = text.lines().find_map(|l| l.strip_prefix("-- sql: ")) {
                        let var = format!("df_q{}", self.history.len());
                        let id = self.notebook.push_sql(sql.to_string(), var);
                        self.dag.update_cell(&self.notebook, id);
                        new_cells.push(id);
                    }
                }
                datalab_agents::Content::Chart(ref spec) => {
                    let id = self.notebook.push(CellKind::Chart, spec.clone());
                    self.dag.update_cell(&self.notebook, id);
                    new_cells.push(id);
                }
                datalab_agents::Content::Text(_) => {}
                _ => {}
            }
        }
        if !outcome.answer.trim().is_empty() {
            let id = self.notebook.push(
                CellKind::Markdown,
                format!("**Q:** {question}\n\n{}", outcome.answer),
            );
            self.dag.update_cell(&self.notebook, id);
            new_cells.push(id);
        }
        self.telemetry
            .metrics()
            .incr("notebook.cells_appended", new_cells.len() as u64);
        if !new_cells.is_empty() {
            self.telemetry.record_event(
                EventKind::CellAppend,
                format!("appended {} cells", new_cells.len()),
            );
        }
        notebook_stage.attr("cells", new_cells.len().to_string());
        drop(notebook_stage);
        self.history.push(grounding.rewritten_query.clone());

        drop(root);
        self.telemetry.record_event(
            EventKind::QueryEnd,
            if outcome.success { "ok" } else { "failed" },
        );
        let telemetry = self.telemetry.finish_query(&attribution_baseline);

        // Error taxonomy for this query: per-kind count deltas, error
        // kinds only (lifetime counts survive ring eviction).
        let final_counts = self.telemetry.events().kind_counts();
        let delta = |kind: &str| {
            final_counts.get(kind).copied().unwrap_or(0)
                - error_baseline.get(kind).copied().unwrap_or(0)
        };
        let mut error_kinds = BTreeMap::new();
        for (kind, count) in &final_counts {
            if !is_error_kind(kind) {
                continue;
            }
            let d = count - error_baseline.get(kind).copied().unwrap_or(0);
            if d > 0 {
                error_kinds.insert(kind.clone(), d);
            }
        }
        // Resilience counters for this query, from the same event deltas.
        let resilience = ResilienceStats {
            faults: delta("llm_fault"),
            transport_retries: delta("transport_retry"),
            breaker_trips: delta("breaker_trip"),
            degraded: delta("degraded"),
        };
        // On failure, attach what the recorder retained since the query
        // started — the flight record.
        let flight_record = if outcome.success {
            Vec::new()
        } else {
            self.telemetry.events().since(event_mark)
        };
        // The query is over: stop tagging telemetry with its trace.
        self.telemetry.set_trace(None);

        if self.config.record_runs {
            self.recorder.push(RunRecord {
                workload: workload.to_string(),
                question: question.to_string(),
                success: outcome.success,
                duration_us: telemetry.root().map(|r| r.dur_us).unwrap_or(0),
                summary: telemetry.clone(),
                error_kinds,
                flight_record: flight_record.clone(),
                resilience,
            });
        }

        DataLabResponse {
            answer: outcome.answer,
            rewritten_query: grounding.rewritten_query,
            plan: outcome.plan,
            frame: outcome.final_frame,
            chart: outcome.chart,
            dsl_json: grounding.dsl_json,
            success: outcome.success,
            new_cells,
            telemetry,
            flight_record,
            degraded,
            resilience,
        }
    }

    /// The resilient transport's current circuit-breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.transport.breaker().state()
    }

    /// Lifetime circuit-breaker trips on the resilient transport.
    pub fn breaker_trips(&self) -> u64 {
        self.transport.breaker().trips()
    }

    /// The session's accumulated run records.
    pub fn run_records(&self) -> &[RunRecord] {
        self.recorder.records()
    }

    /// Drains the session's run records (e.g. to merge several labs'
    /// records into one fleet-wide [`RunRecorder`]).
    pub fn take_run_records(&mut self) -> Vec<RunRecord> {
        std::mem::take(&mut self.recorder).into_records()
    }

    /// Folds every recorded run into a [`FleetReport`].
    pub fn fleet_report(&self) -> FleetReport {
        self.recorder.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalab_frame::{DataType, Date, Value};

    fn sales() -> DataFrame {
        let dates: Vec<Value> = (0..8)
            .map(|i| Value::Date(Date::parse("2026-01-01").unwrap().add_days(i * 20)))
            .collect();
        DataFrame::from_columns(vec![
            (
                "region",
                DataType::Str,
                (0..8)
                    .map(|i| {
                        if i % 2 == 0 {
                            "east".into()
                        } else {
                            "west".into()
                        }
                    })
                    .collect(),
            ),
            (
                "amount",
                DataType::Int,
                (0..8).map(|i| Value::Int(10 + 2 * i)).collect(),
            ),
            ("day", DataType::Date, dates),
        ])
        .unwrap()
    }

    /// Compile-time audit of the session stack: a whole `DataLab` — and
    /// every shared handle inside it — must be movable across threads so
    /// fleet executors can run one session per worker. A non-`Send` field
    /// sneaking into any layer fails this test at compile time.
    #[test]
    fn session_stack_is_send() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<DataLab>();
        assert_send::<DataLabConfig>();
        assert_send::<DataLabResponse>();
        assert_send::<RunRecorder>();
        assert_send::<FleetReport>();
        // The handles shared between layers are also Sync: one instance
        // may be referenced concurrently from several threads.
        assert_sync::<SimLlm>();
        assert_sync::<SharedBuffer>();
        assert_sync::<Telemetry>();
        assert_sync::<Database>();
        assert_sync::<KnowledgeIndex>();
        assert_send::<SimLlm>();
        assert_send::<SharedBuffer>();
        assert_send::<Telemetry>();
    }

    #[test]
    fn registering_shared_frames_does_not_copy() {
        let df = Arc::new(sales());
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_table("sales", Arc::clone(&df)).unwrap();
        let shared = lab.database().get_shared("sales").unwrap();
        assert!(Arc::ptr_eq(&df, &shared));
        let r = lab.query("What is the total amount by region?");
        assert!(r.success, "{:?}", r.plan);
    }

    #[test]
    fn end_to_end_query_appends_cells() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_table("sales", sales()).unwrap();
        let r = lab.query("What is the total amount by region?");
        assert!(r.success, "{:?}", r.plan);
        assert!(r.frame.is_some());
        assert!(!r.new_cells.is_empty());
        assert!(lab.notebook().len() >= 2); // sql + markdown cells
        assert!(lab.tokens_used() > 0);
    }

    #[test]
    fn queries_append_only_their_own_cells() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_table("sales", sales()).unwrap();
        let sql_sources = |lab: &DataLab, ids: &[datalab_notebook::CellId]| -> Vec<String> {
            ids.iter()
                .filter_map(|&id| lab.notebook().get(id))
                .filter(|c| c.kind == CellKind::Sql)
                .map(|c| c.source.clone())
                .collect()
        };
        let mut appended = 0;
        let mut first_sql = Vec::new();
        for _ in 0..3 {
            let r = lab.query("What is the total amount by region?");
            assert!(r.success, "{:?}", r.plan);
            appended += r.new_cells.len();
            first_sql.extend(sql_sources(&lab, &r.new_cells));
        }
        let r = lab.query("What is the average amount by region?");
        assert!(r.success, "{:?}", r.plan);
        appended += r.new_cells.len();
        assert_eq!(lab.notebook().len(), appended);
        let second_sql = sql_sources(&lab, &r.new_cells);
        assert_eq!(second_sql.len(), 1, "{second_sql:?}");
        assert!(
            second_sql.iter().all(|s| !first_sql.contains(s)),
            "second query re-appended {second_sql:?}"
        );
    }

    #[test]
    fn multi_round_history_feeds_rewrite() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_table("sales", sales()).unwrap();
        lab.query("total amount by region for east");
        let r = lab.query("what about west");
        assert!(r.rewritten_query.contains("west"), "{}", r.rewritten_query);
        assert!(
            r.rewritten_query.to_lowercase().contains("amount"),
            "{}",
            r.rewritten_query
        );
    }

    #[test]
    fn knowledge_pipeline_improves_grounding() {
        let mut lab = DataLab::new(DataLabConfig::default());
        let df = DataFrame::from_columns(vec![
            ("rgn_cd", DataType::Str, vec!["east".into(), "west".into()]),
            (
                "shouldincome_after",
                DataType::Float,
                vec![Value::Float(10.0), Value::Float(20.0)],
            ),
        ])
        .unwrap();
        lab.register_table("dwd_sales", df).unwrap();
        let report = lab.ingest_scripts(
            "dwd_sales",
            &[Script::sql(
                "-- daily income rollup by region for finance\n\
                 SELECT rgn_cd, SUM(shouldincome_after) AS total FROM dwd_sales GROUP BY rgn_cd",
            )],
            &Lineage::default(),
        );
        assert!(report.scripts_used == 1);
        lab.add_jargon("gmv", "total income");
        let r = lab.query("show gmv by region");
        assert!(r.success);
        let frame = r.frame.expect("data produced");
        assert_eq!(frame.n_rows(), 2);
    }

    /// Enterprise-style tables with cryptic column names, so grounding
    /// depends on the generated knowledge.
    fn register_enterprise_tables(lab: &mut DataLab) {
        lab.register_csv(
            "dwd_sales",
            "rgn_cd,prod_class4_name,shouldincome_after,cost_amt\n\
             east,Tencent BI,10.5,4.0\n\
             west,Tencent BI,20.0,7.5\n\
             east,Cloud DB,7.0,2.0\n\
             west,Cloud DB,3.5,1.0\n",
        )
        .unwrap();
        lab.register_csv(
            "dim_user",
            "user_id,rgn_cd,is_vip_flag\nu1,east,1\nu2,west,0\nu3,east,0\n",
        )
        .unwrap();
    }

    /// Builds a session's knowledge the way set-up does: Algorithm 1 over
    /// scripts, then curated jargon and value aliases, one edit at a time.
    fn ingested_enterprise_lab() -> DataLab {
        let mut lab = DataLab::new(DataLabConfig::default());
        register_enterprise_tables(&mut lab);
        lab.ingest_scripts(
            "dwd_sales",
            &[Script::sql(
                "-- daily income after tax and operating cost by region and product class\n\
                 SELECT rgn_cd, prod_class4_name, SUM(shouldincome_after) AS income, \
                 SUM(cost_amt) AS cost FROM dwd_sales GROUP BY rgn_cd, prod_class4_name",
            )],
            &Lineage::default(),
        );
        lab.ingest_scripts(
            "dim_user",
            &[Script::sql(
                "-- vip users per region\n\
                 SELECT rgn_cd, COUNT(user_id) AS users FROM dim_user \
                 WHERE is_vip_flag = 1 GROUP BY rgn_cd",
            )],
            &Lineage::default(),
        );
        lab.add_jargon("gmv", "total income after tax");
        lab.add_jargon("margin", "income minus cost");
        lab.add_value_alias("TencentBI", "dwd_sales", "prod_class4_name", "Tencent BI");
        lab.add_value_alias("TBI", "dwd_sales", "prod_class4_name", "Tencent BI");
        lab.add_value_alias("CDB", "dwd_sales", "prod_class4_name", "Cloud DB");
        lab
    }

    const ENTERPRISE_QUESTIONS: &[&str] = &[
        "show gmv by region",
        "what is the income of TencentBI by region",
        "total cost of CDB",
        "how many vip users are there per region",
        "what about west",
    ];

    /// The knowledge lines grounding would put into the prompt for
    /// `question`, given the session's current state.
    fn knowledge_lines(lab: &DataLab, question: &str) -> String {
        datalab_knowledge::incorporate(
            lab.llm.as_ref(),
            &lab.graph,
            &lab.index,
            &format!("{}{}", lab.schema_section(), lab.profile_section()),
            question,
            &lab.history,
            &lab.config.current_date,
            &lab.config.incorporate,
        )
        .knowledge_lines
    }

    /// Both sessions answer the enterprise questions identically: same
    /// rewrite, knowledge lines, DSL, answer and frame.
    fn assert_same_answers(a: &mut DataLab, b: &mut DataLab) {
        let mut grounded = 0;
        for question in ENTERPRISE_QUESTIONS {
            let lines = knowledge_lines(a, question);
            assert_eq!(lines, knowledge_lines(b, question), "{question}");
            grounded += usize::from(!lines.is_empty());
            let (ra, rb) = (a.query(question), b.query(question));
            assert_eq!(ra.rewritten_query, rb.rewritten_query, "{question}");
            assert_eq!(ra.dsl_json, rb.dsl_json, "{question}");
            assert_eq!(ra.answer, rb.answer, "{question}");
            assert_eq!(ra.frame, rb.frame, "{question}");
            assert_eq!(ra.success, rb.success, "{question}");
        }
        assert!(grounded > 0, "no question retrieved any knowledge");
    }

    /// Set-up extends the index one edit at a time; importing the same
    /// knowledge builds it in one go. The two sessions must be
    /// indistinguishable.
    #[test]
    fn incremental_setup_matches_imported_knowledge() {
        let mut ingested = ingested_enterprise_lab();
        assert_eq!(ingested.index.len(), ingested.graph.len());
        assert!(ingested.index == KnowledgeIndex::build(&ingested.graph, INDEX_TASK));
        let mut imported = DataLab::new(DataLabConfig::default());
        register_enterprise_tables(&mut imported);
        imported
            .import_knowledge(&ingested.export_knowledge().unwrap())
            .unwrap();
        assert!(imported.index == ingested.index);
        assert_same_answers(&mut ingested, &mut imported);
    }

    /// Importing knowledge replaces whatever was indexed before rather
    /// than appending to it.
    #[test]
    fn import_knowledge_replaces_the_index() {
        let source = ingested_enterprise_lab();
        let json = source.export_knowledge().unwrap();
        let mut fresh = DataLab::new(DataLabConfig::default());
        register_enterprise_tables(&mut fresh);
        fresh.import_knowledge(&json).unwrap();

        let mut reused = DataLab::new(DataLabConfig::default());
        register_enterprise_tables(&mut reused);
        reused.ingest_scripts(
            "dim_user",
            &[Script::sql("SELECT user_id FROM dim_user")],
            &Lineage::default(),
        );
        reused.add_jargon("arpu", "income per user");
        reused.add_value_alias("VIP", "dim_user", "is_vip_flag", "1");
        reused.import_knowledge(&json).unwrap();
        assert_eq!(reused.index.len(), source.graph.len());
        assert!(reused.index == fresh.index);
        assert_same_answers(&mut reused, &mut fresh);
    }

    #[test]
    fn csv_registration_and_persistence_roundtrip() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_csv(
            "sales",
            "region,amount
east,10
west,20
east,5
",
        )
        .unwrap();
        lab.add_jargon("gmv", "total amount");
        lab.query("show gmv by region");
        let knowledge = lab.export_knowledge().unwrap();
        let notebook = lab.export_notebook();
        assert!(knowledge.contains("gmv"));
        assert!(!notebook.is_empty());

        let mut restored = DataLab::new(DataLabConfig::default());
        restored
            .register_csv(
                "sales",
                "region,amount
east,10
west,20
east,5
",
            )
            .unwrap();
        restored.import_knowledge(&knowledge).unwrap();
        restored.import_notebook(&notebook).unwrap();
        assert_eq!(restored.notebook().len(), lab.notebook().len());
        let r = restored.query("show gmv by region");
        assert!(r.success);
        assert!(restored.import_knowledge("not json").is_err());
    }

    #[test]
    fn query_produces_span_tree_and_attributed_tokens() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_table("sales", sales()).unwrap();
        let before = lab.tokens_used();
        let r = lab.query("What is the total amount by region?");
        assert!(r.success);

        // One root span named "query" with the pipeline stages beneath it.
        let root = r.telemetry.root().expect("single-root span tree");
        assert_eq!(root.name, "query");
        assert!(root.well_formed(), "{}", r.telemetry.render());
        let stages = r.telemetry.stage_names();
        for want in [
            "rewrite",
            "ground",
            "plan",
            "execute",
            "synthesize",
            "notebook",
        ] {
            assert!(stages.contains(&want), "missing stage {want} in {stages:?}");
        }
        // The execute stage carries per-agent scopes.
        let execute = root.find("execute").expect("execute span");
        assert!(
            execute
                .children
                .iter()
                .any(|c| c.name.starts_with("agent:")),
            "{:?}",
            execute.children.iter().map(|c| &c.name).collect::<Vec<_>>()
        );

        // Attributed usage for this query equals the meter's delta.
        let spent = lab.tokens_used() - before;
        assert!(spent > 0);
        assert_eq!(r.telemetry.total.total(), spent);
        assert!(r
            .telemetry
            .attribution
            .iter()
            .all(|a| a.stage != "unattributed"));

        // Exporters: the Chrome trace is valid JSON with complete events.
        let trace = datalab_telemetry::chrome_trace(&r.telemetry.spans);
        let events = trace["traceEvents"].as_array().unwrap();
        assert!(events.len() >= 5);
        for e in events {
            assert_eq!(e["ph"], "X");
            assert!(e["ts"].is_u64() && e["dur"].is_u64());
        }
        let summary_json: datalab_json::Value =
            datalab_json::from_str(&datalab_json::to_string(&r.telemetry)).unwrap();
        assert!(summary_json["spans"].is_array());
        assert!(r.telemetry.render().contains("query"));

        // Platform-wide metrics got fed along the way.
        let m = lab.telemetry().metrics();
        assert!(m.counter("llm.calls") > 0);
        assert!(m.counter("agents.subtasks") >= 1);
        assert!(m.counter("notebook.cells_appended") >= 1);
    }

    #[test]
    fn fleet_report_accumulates_labeled_runs() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_table("sales", sales()).unwrap();
        let r1 = lab.query_as("nl2sql", "What is the total amount by region?");
        let r2 = lab.query_as("nl2vis", "Draw a bar chart of total amount by region");
        assert!(r1.success && r2.success);
        assert!(r1.flight_record.is_empty() && r2.flight_record.is_empty());
        assert_eq!(lab.run_records().len(), 2);

        let report = lab.fleet_report();
        assert_eq!((report.runs, report.passed, report.failed), (2, 2, 0));
        // Fleet token totals are exactly the sum of the per-query deltas.
        assert_eq!(
            report.tokens.total,
            r1.telemetry.total.total() + r2.telemetry.total.total()
        );
        assert_eq!(
            report.llm.calls,
            r1.telemetry.total.calls + r2.telemetry.total.calls
        );
        assert!(report.workloads.contains_key("nl2sql"));
        assert!(report.workloads.contains_key("nl2vis"));
        let execute = report.stage("execute").expect("execute stats");
        assert_eq!(execute.spans, 2);
        assert!(execute.latency.p50_us <= execute.latency.p99_us);
        assert!(report.agent("sql_agent").is_some());
        assert!(report.render().contains("fleet report: 2 runs"));

        // The event log observed both queries.
        let counts = lab.telemetry().events().kind_counts();
        assert_eq!(counts.get("query_start"), Some(&2));
        assert_eq!(counts.get("query_end"), Some(&2));
        assert!(counts.get("llm_call").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn failing_query_attaches_flight_record() {
        // No registered tables: the vis agent has no data source to
        // resolve, so the subtask must fail.
        let mut lab = DataLab::new(DataLabConfig::default());
        let r = lab.query("draw a bar chart of sales by region");
        assert!(!r.success);
        assert!(!r.flight_record.is_empty());
        assert_eq!(r.flight_record.first().unwrap().kind, EventKind::QueryStart);
        assert_eq!(r.flight_record.last().unwrap().kind, EventKind::QueryEnd);
        assert!(r
            .flight_record
            .iter()
            .any(|e| e.kind == EventKind::AgentFailure));

        let record = lab.run_records().last().expect("run recorded");
        assert!(!record.success);
        assert!(
            record
                .error_kinds
                .get("agent_failure")
                .copied()
                .unwrap_or(0)
                >= 1
        );
        let report = lab.fleet_report();
        assert_eq!((report.runs, report.failed), (1, 1));
        assert!(report.errors.contains_key("agent_failure"));
    }

    #[test]
    fn platform_errors_are_counted_and_evented() {
        let mut lab = DataLab::new(DataLabConfig::default());
        assert!(lab.import_knowledge("not json").is_err());
        assert!(lab.import_notebook("not json").is_err());
        assert!(lab.register_csv("bad", "a,b\n1\n").is_err());
        let m = lab.telemetry().metrics();
        assert_eq!(m.counter("platform.errors.knowledge_import"), 1);
        assert_eq!(m.counter("platform.errors.notebook_import"), 1);
        assert_eq!(m.counter("platform.errors.csv_register"), 1);
        assert_eq!(
            lab.telemetry().events().kind_counts().get("platform_error"),
            Some(&3)
        );
    }

    #[test]
    fn record_runs_off_keeps_the_recorder_empty() {
        let mut lab = DataLab::new(DataLabConfig {
            record_runs: false,
            ..Default::default()
        });
        lab.register_table("sales", sales()).unwrap();
        let r = lab.query("What is the total amount by region?");
        assert!(r.success);
        // The response still carries its telemetry summary; only the
        // session-held record is skipped.
        assert!(r.telemetry.root().is_some());
        assert!(lab.run_records().is_empty());
        assert_eq!(lab.fleet_report().runs, 0);
    }

    #[test]
    fn chaos_free_sessions_report_zero_resilience() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_table("sales", sales()).unwrap();
        let r = lab.query("What is the total amount by region?");
        assert!(r.success);
        assert!(!r.degraded);
        assert!(r.resilience.is_zero(), "{:?}", r.resilience);
        assert_eq!(lab.breaker_state(), BreakerState::Closed);
        assert_eq!(lab.breaker_trips(), 0);
        assert!(lab.fleet_report().resilience.is_zero());
        // The fault taxonomy is pre-registered at zero so exports always
        // enumerate it.
        let m = lab.telemetry().metrics();
        assert_eq!(m.counter("llm.faults.transport"), 0);
        assert_eq!(m.counter("llm.breaker.trips"), 0);
        assert_eq!(m.gauge("llm.breaker.state"), 0);
    }

    #[test]
    fn zero_rate_chaos_is_indistinguishable_from_no_chaos() {
        let questions = [
            "What is the total amount by region?",
            "Draw a bar chart of total amount by region",
            "Summarize the amount trends",
        ];
        let run = |config: DataLabConfig| {
            let mut lab = DataLab::new(config);
            lab.register_table("sales", sales()).unwrap();
            for q in &questions {
                lab.query_as("nl2sql", q);
            }
            lab.fleet_report()
        };
        let plain = run(DataLabConfig::default());
        let zero_chaos = run(DataLabConfig {
            chaos: Some(ChaosConfig::uniform(99, 0.0)),
            ..DataLabConfig::default()
        });
        assert_eq!(plain.comparable(), zero_chaos.comparable());
        assert!(zero_chaos.resilience.is_zero());
    }

    #[test]
    fn heavy_chaos_degrades_gracefully_without_poisoned_answers() {
        let mut lab = DataLab::new(DataLabConfig {
            chaos: Some(ChaosConfig::uniform(7, 0.9)),
            ..DataLabConfig::default()
        });
        lab.register_table("sales", sales()).unwrap();
        let mut saw_degraded = false;
        for q in [
            "What is the total amount by region?",
            "Draw a bar chart of total amount by region",
            "What is the total amount by region for east?",
            "Summarize the amount by region",
        ] {
            let r = lab.query_as("chaos", q);
            // Structured degradation, never transport poison in answers.
            assert!(!r.answer.contains("<<llm-error"), "{}", r.answer);
            assert!(!r.answer.contains("!!{garbage"), "{}", r.answer);
            saw_degraded |= r.degraded;
            if r.degraded {
                assert!(r.resilience.degraded >= 1, "{:?}", r.resilience);
            }
        }
        assert!(saw_degraded, "90% fault rate never forced a fallback");
        let report = lab.fleet_report();
        assert!(report.resilience.faults > 0, "{:?}", report.resilience);
        assert!(report.resilience.transport_retries > 0);
        assert!(
            report.resilience.breaker_trips > 0,
            "{:?}",
            report.resilience
        );
        assert_eq!(report.resilience.breaker_trips, lab.breaker_trips());
        assert!(
            report.errors.contains_key("degraded"),
            "{:?}",
            report.errors
        );
        // The metrics registry saw the same activity.
        let m = lab.telemetry().metrics();
        assert!(m.counter("llm.faults.retries") > 0);
        assert!(m.counter("llm.breaker.trips") > 0);
    }

    #[test]
    fn ingest_appends_upserts_and_deduplicates() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_csv("sales", "region,amount\neast,10\nwest,20\n")
            .unwrap();

        // Plain append.
        let r = lab
            .ingest_rows("sales", "region,amount\nnorth,5\n", None, "batch-1")
            .unwrap();
        assert_eq!((r.appended, r.updated, r.deduplicated), (1, 0, false));
        assert_eq!(lab.database().get("sales").unwrap().n_rows(), 3);

        // Retrying the same idempotency key changes nothing.
        let retry = lab
            .ingest_rows("sales", "region,amount\nnorth,5\n", None, "batch-1")
            .unwrap();
        assert!(retry.deduplicated);
        assert_eq!(lab.database().get("sales").unwrap().n_rows(), 3);

        // Upsert by key column: west replaced in place, south appended;
        // within the batch the last row for a repeated key wins.
        let r = lab
            .ingest_rows(
                "sales",
                "region,amount\nwest,21\nsouth,7\nwest,22\n",
                Some("region"),
                "batch-2",
            )
            .unwrap();
        assert_eq!((r.appended, r.updated), (1, 1));
        let df = lab.database().get("sales").unwrap();
        assert_eq!(df.n_rows(), 4);
        let west_at = df
            .column("region")
            .unwrap()
            .iter()
            .position(|v| v == &Value::Str("west".into()))
            .unwrap();
        assert_eq!(df.column("amount").unwrap()[west_at], Value::Int(22));

        // Validation failures change nothing and are counted.
        assert!(lab
            .ingest_rows("sales", "region,amount\nx,oops\n", None, "batch-3")
            .is_err());
        assert!(lab
            .ingest_rows("sales", "region,amount\nx,1\n", Some("nope"), "batch-3")
            .is_err());
        assert!(lab
            .ingest_rows("missing", "region,amount\nx,1\n", None, "batch-3")
            .is_err());
        assert_eq!(lab.database().get("sales").unwrap().n_rows(), 4);
        assert!(!lab.ingest_seen("batch-3"));
        let m = lab.telemetry().metrics();
        assert_eq!(m.counter("ingest.batches"), 2);
        assert_eq!(m.counter("ingest.deduplicated"), 1);
        assert_eq!(m.counter("platform.errors.ingest"), 3);

        // The applied-key set round-trips through export/restore.
        let keys = lab.export_ingest_keys();
        assert_eq!(keys, vec!["batch-1".to_string(), "batch-2".to_string()]);
        let mut other = DataLab::new(DataLabConfig::default());
        other
            .register_csv("sales", "region,amount\neast,10\n")
            .unwrap();
        other.restore_ingest_keys(keys);
        let replay = other
            .ingest_rows("sales", "region,amount\nnorth,5\n", None, "batch-1")
            .unwrap();
        assert!(replay.deduplicated);
        assert_eq!(other.database().get("sales").unwrap().n_rows(), 1);
    }

    /// A table's profile describes its current data: re-registration
    /// replaces it and ingest refreshes it, so a session rebuilt from the
    /// exported tables profiles them identically.
    #[test]
    fn profiles_track_the_current_table_data() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_csv("sales", "region,amount\neast,10\n")
            .unwrap();
        lab.register_csv("Sales", "region,amount\nwest,20\n")
            .unwrap();
        lab.ingest_rows("sales", "region,amount\nnorth,5\n", None, "b1")
            .unwrap();
        let section = lab.profile_section();
        assert!(!section.contains("east"), "{section}");
        assert!(section.contains("north"), "{section}");
        let mut rebuilt = DataLab::new(DataLabConfig::default());
        for (name, csv) in lab.export_tables() {
            rebuilt.register_csv(&name, &csv).unwrap();
        }
        assert_eq!(rebuilt.profile_section(), section);
    }

    #[test]
    fn ingest_invalidates_referencing_cells() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_table("sales", sales()).unwrap();
        let r = lab.query("What is the total amount by region?");
        assert!(r.success);
        let batch = lab
            .ingest_rows(
                "sales",
                "region,amount,day\neast,99,2026-03-01\n",
                None,
                "b1",
            )
            .unwrap();
        assert!(
            !batch.invalidated_cells.is_empty(),
            "sql cell referencing sales should go stale"
        );
        assert!(lab.telemetry().metrics().counter("dag.invalidated") > 0);
        // A table nothing references invalidates nothing.
        lab.register_csv("orphan", "x\n1\n").unwrap();
        let b2 = lab.ingest_rows("orphan", "x\n2\n", None, "b2").unwrap();
        assert!(b2.invalidated_cells.is_empty());
    }

    #[test]
    fn chart_queries_render_and_store_chart_cells() {
        let mut lab = DataLab::new(DataLabConfig::default());
        lab.register_table("sales", sales()).unwrap();
        let r = lab.query("Draw a bar chart of total amount by region");
        assert!(r.chart.is_some());
        let has_chart_cell = lab
            .notebook()
            .cells()
            .iter()
            .any(|c| c.kind == CellKind::Chart);
        assert!(has_chart_cell);
    }
}
