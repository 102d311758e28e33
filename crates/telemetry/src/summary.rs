//! Per-query summaries: the span tree, token attribution, and totals for
//! one `query()` call, packaged for attachment to a response.

use crate::span::SpanNode;

/// Token usage for one attribution bucket (or a grand total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenUsage {
    /// Prompt-side tokens.
    pub prompt_tokens: u64,
    /// Completion-side tokens.
    pub completion_tokens: u64,
    /// Number of model calls.
    pub calls: u64,
}

impl TokenUsage {
    /// Prompt plus completion tokens.
    pub fn total(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }

    /// Component-wise sum.
    pub fn add(&self, other: &TokenUsage) -> TokenUsage {
        TokenUsage {
            prompt_tokens: self.prompt_tokens + other.prompt_tokens,
            completion_tokens: self.completion_tokens + other.completion_tokens,
            calls: self.calls + other.calls,
        }
    }

    /// Component-wise difference, saturating at zero.
    pub fn saturating_sub(&self, other: &TokenUsage) -> TokenUsage {
        TokenUsage {
            prompt_tokens: self.prompt_tokens.saturating_sub(other.prompt_tokens),
            completion_tokens: self
                .completion_tokens
                .saturating_sub(other.completion_tokens),
            calls: self.calls.saturating_sub(other.calls),
        }
    }
}

/// Token usage attributed to one (pipeline stage, agent) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributedUsage {
    /// Pipeline stage the calls ran under (e.g. `rewrite`, `execute`),
    /// or `unattributed` for calls outside any stage scope.
    pub stage: String,
    /// Agent active during the calls (e.g. `sql_agent`), or `-` when no
    /// agent scope was open (platform-level calls).
    pub agent: String,
    /// Usage accumulated under this (stage, agent) pair.
    pub usage: TokenUsage,
}

/// Everything telemetry observed during one `query()` call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuerySummary {
    /// The query's span forest (normally a single `query` root).
    pub spans: Vec<SpanNode>,
    /// Per-(stage, agent) token usage, key-sorted.
    pub attribution: Vec<AttributedUsage>,
    /// Sum of all attributed usage for this query.
    pub total: TokenUsage,
}

impl QuerySummary {
    /// The root span, when exactly one tree was recorded.
    pub fn root(&self) -> Option<&SpanNode> {
        if self.spans.len() == 1 {
            self.spans.first()
        } else {
            None
        }
    }

    /// Names of the root's direct children — the pipeline stages — in
    /// execution order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.root()
            .map(|r| r.children.iter().map(|c| c.name.as_str()).collect())
            .unwrap_or_default()
    }

    /// Human-readable report: the indented span tree followed by a token
    /// table per (stage, agent) pair.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in &self.spans {
            out.push_str(&root.render());
        }
        if !self.attribution.is_empty() {
            out.push_str("tokens by stage/agent:\n");
            for a in &self.attribution {
                out.push_str(&format!(
                    "  {:<12} {:<12} {:>3} calls  {:>6} prompt  {:>6} completion\n",
                    a.stage,
                    a.agent,
                    a.usage.calls,
                    a.usage.prompt_tokens,
                    a.usage.completion_tokens
                ));
            }
        }
        out.push_str(&format!(
            "total: {} calls, {} tokens ({} prompt + {} completion)\n",
            self.total.calls,
            self.total.total(),
            self.total.prompt_tokens,
            self.total.completion_tokens
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> QuerySummary {
        QuerySummary {
            spans: vec![SpanNode {
                name: "query".into(),
                start_us: 0,
                dur_us: 50,
                cpu_us: 0,
                allocs: 0,
                alloc_bytes: 0,
                attrs: vec![],
                children: vec![
                    SpanNode {
                        name: "rewrite".into(),
                        start_us: 1,
                        dur_us: 10,
                        cpu_us: 0,
                        allocs: 0,
                        alloc_bytes: 0,
                        attrs: vec![],
                        children: vec![],
                    },
                    SpanNode {
                        name: "execute".into(),
                        start_us: 12,
                        dur_us: 30,
                        cpu_us: 0,
                        allocs: 0,
                        alloc_bytes: 0,
                        attrs: vec![],
                        children: vec![],
                    },
                ],
            }],
            attribution: vec![
                AttributedUsage {
                    stage: "execute".into(),
                    agent: "sql_agent".into(),
                    usage: TokenUsage {
                        prompt_tokens: 30,
                        completion_tokens: 5,
                        calls: 1,
                    },
                },
                AttributedUsage {
                    stage: "rewrite".into(),
                    agent: "-".into(),
                    usage: TokenUsage {
                        prompt_tokens: 10,
                        completion_tokens: 2,
                        calls: 1,
                    },
                },
            ],
            total: TokenUsage {
                prompt_tokens: 40,
                completion_tokens: 7,
                calls: 2,
            },
        }
    }

    #[test]
    fn usage_arithmetic() {
        let a = TokenUsage {
            prompt_tokens: 10,
            completion_tokens: 4,
            calls: 2,
        };
        let b = TokenUsage {
            prompt_tokens: 3,
            completion_tokens: 1,
            calls: 1,
        };
        assert_eq!(a.total(), 14);
        assert_eq!(
            a.add(&b),
            TokenUsage {
                prompt_tokens: 13,
                completion_tokens: 5,
                calls: 3
            }
        );
        assert_eq!(b.saturating_sub(&a), TokenUsage::default());
        assert_eq!(
            a.saturating_sub(&b),
            TokenUsage {
                prompt_tokens: 7,
                completion_tokens: 3,
                calls: 1
            }
        );
    }

    #[test]
    fn stage_names_come_from_root_children() {
        let s = summary();
        assert_eq!(s.stage_names(), vec!["rewrite", "execute"]);
        assert!(s.root().is_some());
        assert!(QuerySummary::default().root().is_none());
        assert!(QuerySummary::default().stage_names().is_empty());
    }

    #[test]
    fn render_shows_tree_and_token_table() {
        let text = summary().render();
        assert!(text.contains("query "), "{text}");
        assert!(text.contains("\n  rewrite "), "{text}");
        assert!(text.contains("tokens by stage/agent:"), "{text}");
        assert!(text.contains("sql_agent"), "{text}");
        assert!(
            text.contains("total: 2 calls, 47 tokens (40 prompt + 7 completion)"),
            "{text}"
        );
    }

    #[test]
    fn json_and_chrome_trace_have_expected_shape() {
        let s = summary();
        let json = datalab_json::to_string(&s);
        assert!(
            json.starts_with("{\"spans\":[{\"name\":\"query\""),
            "{json}"
        );
        assert!(json.contains("\"attribution\":[{\"stage\":\"execute\""));
        assert!(
            json.ends_with("\"total\":{\"prompt_tokens\":40,\"completion_tokens\":7,\"calls\":2}}")
        );
        let trace = crate::chrome_trace(&s.spans).to_string();
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"execute\""));
    }
}
