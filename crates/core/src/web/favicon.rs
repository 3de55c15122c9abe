//! §4.3.3 — Favicon grouping with LLM reclassification.
//!
//! The decision tree of Fig. 6:
//!
//! 1. **Blocklist** — final URLs on the Appendix D.2 list (mainstream
//!    platforms) are excluded.
//! 2. **Step 1: same favicon + same brand label** — URL groups sharing a
//!    favicon *and* a brand label (`www.orange.es` / `www.orange.pl`)
//!    merge without consulting the model.
//! 3. **Step 2: LLM reclassification** — favicon groups spanning multiple
//!    brand labels (the `clarochile.cl` / `claropr.com` family, but also
//!    every Bootstrap-default-favicon coincidence) are sent to the chat
//!    model with the favicon image and the URL list. A company-name reply
//!    merges the whole group; a technology name or "I don't know" rejects
//!    it.

use crate::blocklists::blocked_for_favicon;
use borges_llm::chat::{
    ChatModel, ChatRequest, ChatResponse, Content, DecodingParams, Message, Role,
};
use borges_llm::classifier::KNOWN_FRAMEWORKS;
use borges_llm::prompts::{build_classifier_prompt, parse_classifier_reply, ClassifierReply};
use borges_resilience::TransportError;
use borges_types::{Asn, FaviconHash, Url};
use borges_websim::ScrapeReport;
use std::collections::BTreeMap;

/// Counters for the favicon stage (§5.2's favicon funnel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaviconStats {
    /// Distinct favicons observed across final URLs.
    pub favicons_total: usize,
    /// Favicons shared by more than one final URL (after blocklist).
    pub favicons_shared: usize,
    /// Final URLs involved in shared favicons.
    pub urls_in_shared: usize,
    /// Shared favicons containing a same-brand-label pair (step 1 hits).
    pub same_label_groups: usize,
    /// Groups merged by step 1 (no LLM).
    pub merged_by_step1: usize,
    /// LLM calls issued in step 2.
    pub llm_calls: usize,
    /// Step-2 calls abandoned because the transport failed (budgets
    /// exhausted or no retry layer installed). The group is recorded as
    /// [`GroupOutcome::Abandoned`] and contributes no merge evidence.
    ///
    /// Always: `llm_abandoned + replies parsed == llm_calls`.
    pub llm_abandoned: usize,
    /// Groups merged by the LLM (company verdict).
    pub merged_by_llm: usize,
    /// Groups rejected as web-technology default icons.
    pub framework_rejections: usize,
    /// Groups the model declined to name.
    pub dont_know: usize,
    /// Token accounting across the step-2 LLM calls.
    pub usage: borges_llm::chat::Usage,
    /// Retry/breaker accounting when the stage ran behind a
    /// [`RetryingModel`](borges_llm::RetryingModel) (stamped by
    /// [`Borges::ingest`](crate::pipeline::Borges::ingest) under a retry
    /// policy; zero otherwise).
    pub resilience: borges_resilience::ResilienceStats,
}

/// How a favicon group was resolved — the audit trail the Table 5
/// evaluation scores against ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupOutcome {
    /// Step 1 merged the whole group (same favicon + same brand label).
    MergedByStep1,
    /// Step 2's LLM named a company and the group merged.
    MergedByLlm,
    /// Step 2's LLM named a web technology; rejected.
    RejectedFramework,
    /// Step 2's LLM declined; rejected.
    RejectedUnknown,
    /// Step 2's transport failed after every retry (or none were
    /// configured): no verdict exists. The group merges nothing —
    /// degradation removes evidence, it never invents any.
    Abandoned,
}

/// The decision record for one shared-favicon group.
#[derive(Debug, Clone)]
pub struct GroupDecision {
    /// The shared favicon.
    pub favicon: FaviconHash,
    /// The distinct (non-blocklisted) final URLs in the group.
    pub urls: Vec<Url>,
    /// Every ASN behind those URLs.
    pub asns: Vec<Asn>,
    /// Whether step 1 alone merged the *entire* group.
    pub step1_merged_all: bool,
    /// The final outcome.
    pub outcome: GroupOutcome,
}

/// One memoized step-2 classifier reply: the fingerprint of the URL
/// list that was sent, and the parsed verdict (`named: None` is the
/// model's "I don't know"). A memo hit replays the verdict through the
/// unchanged framework check and skips the multimodal LLM call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaviconMemo {
    /// [`crate::delta::favicon_urls_fp`] of the ordered canonical URL
    /// list when the reply was obtained.
    pub fp: u64,
    /// The company/technology name replied, or `None` for "I don't know".
    pub named: Option<String>,
}

/// The output of the favicon stage.
#[derive(Debug, Clone, Default)]
pub struct FaviconInference {
    /// Merge-evidence groups (each: ASNs inferred to share a company).
    pub groups: Vec<Vec<Asn>>,
    /// The favicon behind each entry of `groups` (parallel vector) —
    /// the segmentation key incremental recompilation partitions by.
    pub group_favicons: Vec<FaviconHash>,
    /// Per-shared-favicon decision records (for Table 5 scoring).
    pub decisions: Vec<GroupDecision>,
    /// Every step-2 verdict obtained or replayed this run, keyed by
    /// favicon — captured on full runs too, so any run can seed `remap`.
    pub memo: BTreeMap<FaviconHash, FaviconMemo>,
    /// Step-2 groups answered from a prior memo instead of an LLM call.
    pub memo_hits: usize,
    /// Counters.
    pub stats: FaviconStats,
}

/// Runs the favicon decision tree over a scrape report.
pub fn favicon_inference(report: &ScrapeReport, model: &dyn ChatModel) -> FaviconInference {
    favicon_inference_with(report, model, true)
}

/// Like [`favicon_inference`], with the Appendix D.2 blocklist optionally
/// disabled (the ablation companion of
/// [`rr_inference_with`](crate::web::rr::rr_inference_with)). Sends the
/// [`plan`]'s requests one at a time, in plan order.
pub fn favicon_inference_with(
    report: &ScrapeReport,
    model: &dyn ChatModel,
    apply_blocklist: bool,
) -> FaviconInference {
    let plan = plan(report, apply_blocklist, &BTreeMap::new());
    let replies: Vec<_> = plan.requests().iter().map(|r| model.complete(r)).collect();
    plan.fold(replies)
}

/// How step 2 answers a shared-favicon group.
enum Step2 {
    /// Step 1 merged every URL of the group: no verdict needed.
    Settled,
    /// A memoized verdict for the identical URL list.
    Replay(FaviconMemo),
    /// The next request of the plan; `u64` is the URL-list fingerprint
    /// the reply will be memoized under.
    Ask(u64),
}

/// One favicon shared by at least two distinct (non-blocklisted) final
/// URLs, analysed up to the step-2 call.
struct SharedFavicon {
    favicon: FaviconHash,
    /// Step 1's merge groups (same favicon + same brand label).
    step1: Vec<Vec<Asn>>,
    urls: Vec<Url>,
    asns: Vec<Asn>,
    step2: Step2,
}

/// The step-2 classifier calls a favicon run needs, listed before any
/// is sent.
///
/// [`plan`] applies the blocklist, step 1 and the memo;
/// [`FaviconPlan::fold`] applies the verdicts and the funnel counters to
/// the replies. Requests are listed in favicon order and fold reads the
/// replies in that same order, so *who* sends them — one at a time, or a
/// pool completing them in any order — cannot change the result.
pub(crate) struct FaviconPlan {
    favicons_total: usize,
    shared: Vec<SharedFavicon>,
    requests: Vec<ChatRequest>,
}

/// Lists the step-2 calls for the favicons of `report`: only groups that
/// span several brand labels need the model, and groups whose URL list
/// fingerprint matches `memo` replay the memoized verdict instead, with
/// no call issued. `stats.llm_calls` counts physical calls only.
pub(crate) fn plan(
    report: &ScrapeReport,
    apply_blocklist: bool,
    memo: &BTreeMap<FaviconHash, FaviconMemo>,
) -> FaviconPlan {
    let by_favicon = report.asns_by_favicon();
    let mut plan = FaviconPlan {
        favicons_total: by_favicon.len(),
        shared: Vec::new(),
        requests: Vec::new(),
    };
    for (favicon, entries) in by_favicon {
        // Blocklist, then collapse to distinct final URLs (a URL may carry
        // several ASNs when several networks landed on it).
        let mut by_url: BTreeMap<String, (Url, Vec<Asn>)> = BTreeMap::new();
        for (url, asn) in entries {
            if apply_blocklist && blocked_for_favicon(&url) {
                continue;
            }
            by_url
                .entry(url.canonical())
                .or_insert_with(|| (url.clone(), Vec::new()))
                .1
                .push(asn);
        }
        if by_url.len() < 2 {
            continue; // favicon grouping needs at least two distinct URLs
        }

        // Step 1: partition by brand label.
        let mut by_label: BTreeMap<&str, Vec<&(Url, Vec<Asn>)>> = BTreeMap::new();
        let mut unlabeled = 0usize;
        for entry in by_url.values() {
            match entry.0.brand_label() {
                Some(label) => by_label.entry(label).or_default().push(entry),
                None => unlabeled += 1,
            }
        }
        let mut step1 = Vec::new();
        let mut step1_merged_everything = false;
        for group in by_label.values() {
            if group.len() >= 2 {
                step1.push(
                    group
                        .iter()
                        .flat_map(|(_, asns)| asns.iter().copied())
                        .collect(),
                );
                if group.len() == by_url.len() {
                    step1_merged_everything = true;
                }
            }
        }

        let mut asns: Vec<Asn> = by_url
            .values()
            .flat_map(|(_, asns)| asns.iter().copied())
            .collect();
        asns.sort_unstable();
        asns.dedup();

        let step2 = if step1_merged_everything && unlabeled == 0 {
            Step2::Settled
        } else {
            // Step 2: one LLM call for the whole favicon group — unless a
            // memoized verdict for the identical URL list can be replayed.
            let urls: Vec<String> = by_url.values().map(|(u, _)| u.canonical()).collect();
            let fp = crate::delta::favicon_urls_fp(&urls);
            match memo.get(&favicon) {
                Some(entry) if entry.fp == fp => Step2::Replay(entry.clone()),
                _ => {
                    plan.requests.push(ChatRequest {
                        messages: vec![Message {
                            role: Role::User,
                            parts: vec![
                                Content::Text(build_classifier_prompt(&urls)),
                                Content::Image { favicon },
                            ],
                        }],
                        params: DecodingParams::deterministic(),
                    });
                    Step2::Ask(fp)
                }
            }
        };
        plan.shared.push(SharedFavicon {
            favicon,
            step1,
            urls: by_url.into_values().map(|(u, _)| u).collect(),
            asns,
            step2,
        });
    }
    plan
}

impl FaviconPlan {
    /// The step-2 calls to send, in canonical (favicon) order.
    pub fn requests(&self) -> &[ChatRequest] {
        &self.requests
    }

    /// Applies the decision tree to the replies — one per request, in
    /// request order — and returns the stage's output.
    pub fn fold(
        self,
        replies: impl IntoIterator<Item = Result<ChatResponse, TransportError>>,
    ) -> FaviconInference {
        let mut replies = replies.into_iter();
        let mut out = FaviconInference::default();
        out.stats.favicons_total = self.favicons_total;
        for shared in self.shared {
            let SharedFavicon {
                favicon,
                step1,
                urls,
                asns,
                step2,
            } = shared;
            out.stats.favicons_shared += 1;
            out.stats.urls_in_shared += urls.len();
            if !step1.is_empty() {
                out.stats.same_label_groups += 1;
            }
            for group in step1 {
                out.groups.push(group);
                out.group_favicons.push(favicon);
                out.stats.merged_by_step1 += 1;
            }
            let outcome = match step2 {
                Step2::Settled => GroupOutcome::MergedByStep1,
                Step2::Replay(entry) => {
                    out.memo_hits += 1;
                    out.apply_verdict(favicon, entry.fp, entry.named, &asns)
                }
                Step2::Ask(fp) => {
                    // Count the call before reading its reply, so the
                    // funnel stays exact (`llm_abandoned + parsed ==
                    // llm_calls`) on every path out.
                    out.stats.llm_calls += 1;
                    match replies.next().expect("one reply per request") {
                        Ok(reply) => {
                            out.stats.usage += reply.usage;
                            let named = match parse_classifier_reply(&reply.text) {
                                ClassifierReply::Name(name) => Some(name),
                                ClassifierReply::DontKnow => None,
                            };
                            out.apply_verdict(favicon, fp, named, &asns)
                        }
                        Err(_transport) => {
                            // Failures are never memoized: the next run
                            // retries the call.
                            out.stats.llm_abandoned += 1;
                            GroupOutcome::Abandoned
                        }
                    }
                }
            };
            out.decisions.push(GroupDecision {
                favicon,
                urls,
                asns,
                step1_merged_all: outcome == GroupOutcome::MergedByStep1,
                outcome,
            });
        }
        assert!(replies.next().is_none(), "one reply per request");

        for g in &mut out.groups {
            g.sort_unstable();
            g.dedup();
        }
        out
    }
}

impl FaviconInference {
    /// Memoizes a step-2 verdict for `favicon` and applies it: a company
    /// name merges `asns`, a technology name or a decline (`None`)
    /// rejects them.
    fn apply_verdict(
        &mut self,
        favicon: FaviconHash,
        fp: u64,
        named: Option<String>,
        asns: &[Asn],
    ) -> GroupOutcome {
        let outcome = match &named {
            Some(name) if is_framework_name(name) => {
                self.stats.framework_rejections += 1;
                GroupOutcome::RejectedFramework
            }
            Some(_) => {
                self.groups.push(asns.to_vec());
                self.group_favicons.push(favicon);
                self.stats.merged_by_llm += 1;
                GroupOutcome::MergedByLlm
            }
            None => {
                self.stats.dont_know += 1;
                GroupOutcome::RejectedUnknown
            }
        };
        self.memo.insert(favicon, FaviconMemo { fp, named });
        outcome
    }
}

/// Is a classifier reply the name of a web technology rather than a
/// company? (Case-insensitive match against the known-framework table the
/// multimodal model recognizes.)
fn is_framework_name(name: &str) -> bool {
    let folded = name.to_ascii_lowercase();
    KNOWN_FRAMEWORKS.iter().any(|f| *f == folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use borges_llm::classifier::framework_favicon;
    use borges_llm::SimLlm;
    use borges_websim::{Scraper, SimWeb, SimWebClient};

    fn icon(name: &str) -> FaviconHash {
        FaviconHash::of_bytes(format!("brand:{name}").as_bytes())
    }

    fn world() -> SimWeb {
        SimWeb::builder()
            // Orange: shared favicon + shared label → step 1.
            .page("www.orange.es", Some(icon("orange")))
            .page("www.orange.pl", Some(icon("orange")))
            // Claro: shared favicon, different labels → step 2, company.
            .page_at(
                "www.clarochile.cl",
                "https://www.clarochile.cl/personas/",
                Some(icon("claro")),
            )
            .page_at(
                "www.claropr.com",
                "https://www.claropr.com/personas/",
                Some(icon("claro")),
            )
            // Bootstrap defaults on unrelated sites → step 2, framework.
            .page("www.anosbd.com", Some(framework_favicon("bootstrap")))
            .page("www.rptechzone.in", Some(framework_favicon("bootstrap")))
            // DE-CIX: shared favicon, unrelated names → step 2, don't know.
            .page("www.de-cix.net", Some(icon("decix")))
            .page("www.aqaba-ix.net", Some(icon("decix")))
            // A unique favicon (not shared) → ignored.
            .page("www.lumen.com", Some(icon("lumen")))
            .build()
    }

    /// Plans over `memo`, sends the remaining requests one at a time,
    /// and folds the replies.
    fn infer_over_memo(
        report: &ScrapeReport,
        model: &dyn ChatModel,
        memo: &BTreeMap<FaviconHash, FaviconMemo>,
    ) -> FaviconInference {
        let plan = plan(report, true, memo);
        let replies: Vec<_> = plan.requests().iter().map(|r| model.complete(r)).collect();
        plan.fold(replies)
    }

    fn report() -> ScrapeReport {
        let web = world();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        scraper.crawl(vec![
            (Asn::new(1), "www.orange.es"),
            (Asn::new(2), "www.orange.pl"),
            (Asn::new(3), "www.clarochile.cl"),
            (Asn::new(4), "www.claropr.com"),
            (Asn::new(5), "www.anosbd.com"),
            (Asn::new(6), "www.rptechzone.in"),
            (Asn::new(7), "www.de-cix.net"),
            (Asn::new(8), "www.aqaba-ix.net"),
            (Asn::new(9), "www.lumen.com"),
        ])
    }

    #[test]
    fn decision_tree_resolves_all_four_families() {
        let llm = SimLlm::flawless();
        let inf = favicon_inference(&report(), &llm);

        // Orange merged in step 1.
        assert!(inf
            .groups
            .iter()
            .any(|g| g == &vec![Asn::new(1), Asn::new(2)]));
        assert_eq!(inf.stats.merged_by_step1, 1);

        // Claro merged by the LLM.
        assert!(inf
            .groups
            .iter()
            .any(|g| g == &vec![Asn::new(3), Asn::new(4)]));
        assert_eq!(inf.stats.merged_by_llm, 1);

        // Bootstrap rejected as a framework.
        assert_eq!(inf.stats.framework_rejections, 1);
        assert!(!inf
            .groups
            .iter()
            .any(|g| g.contains(&Asn::new(5)) || g.contains(&Asn::new(6))));

        // DE-CIX declined — the paper's reported miss.
        assert_eq!(inf.stats.dont_know, 1);
        assert!(!inf.groups.iter().any(|g| g.contains(&Asn::new(7))));
    }

    #[test]
    fn funnel_counters_are_consistent() {
        let llm = SimLlm::flawless();
        let inf = favicon_inference(&report(), &llm);
        assert_eq!(inf.stats.favicons_total, 5);
        assert_eq!(inf.stats.favicons_shared, 4, "lumen's icon is unique");
        assert_eq!(inf.stats.urls_in_shared, 8);
        // Orange merged fully by step 1 → no LLM call for it.
        assert_eq!(inf.stats.llm_calls, 3);
    }

    #[test]
    fn blocklisted_urls_are_invisible_to_the_stage() {
        let web = SimWeb::builder()
            .page("facebook.com", Some(icon("fb")))
            .page("www.acme.com", Some(icon("fb"))) // same icon as facebook
            .build();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        let report = scraper.crawl(vec![
            (Asn::new(1), "facebook.com"),
            (Asn::new(2), "facebook.com"),
            (Asn::new(3), "www.acme.com"),
        ]);
        let llm = SimLlm::flawless();
        let inf = favicon_inference(&report, &llm);
        // facebook.com is blocked, leaving one distinct URL — not shared.
        assert_eq!(inf.stats.favicons_shared, 0);
        assert!(inf.groups.is_empty());
    }

    #[test]
    fn framework_name_detection() {
        assert!(is_framework_name("Bootstrap"));
        assert!(is_framework_name("wordpress"));
        assert!(!is_framework_name("Claro"));
    }

    /// Delegates to [`SimLlm`] except for one favicon, whose step-2 call
    /// dies on the wire — the "budgets exhausted" endpoint of the retry
    /// stack, seen from the decision tree's side.
    struct DeadIcon {
        inner: SimLlm,
        dead: FaviconHash,
    }

    impl ChatModel for DeadIcon {
        fn model_id(&self) -> &str {
            self.inner.model_id()
        }

        fn complete(
            &self,
            request: &ChatRequest,
        ) -> Result<borges_llm::chat::ChatResponse, borges_resilience::TransportError> {
            let hits_dead_icon = request.messages.iter().any(|m| {
                m.parts
                    .iter()
                    .any(|p| matches!(p, Content::Image { favicon } if *favicon == self.dead))
            });
            if hits_dead_icon {
                Err(borges_resilience::TransportError::Timeout)
            } else {
                self.inner.complete(request)
            }
        }
    }

    #[test]
    fn chaos_abandoned_group_degrades_without_inventing_merges() {
        let flawless = favicon_inference(&report(), &SimLlm::flawless());
        let dead = DeadIcon {
            inner: SimLlm::flawless(),
            dead: icon("claro"),
        };
        let inf = favicon_inference(&report(), &dead);

        // Accounting: every call is either parsed or abandoned.
        assert_eq!(inf.stats.llm_calls, 3);
        assert_eq!(inf.stats.llm_abandoned, 1);
        assert_eq!(
            inf.stats.llm_abandoned
                + inf.stats.merged_by_llm
                + inf.stats.framework_rejections
                + inf.stats.dont_know,
            inf.stats.llm_calls
        );

        // The dead group is recorded, not silently dropped.
        let abandoned: Vec<_> = inf
            .decisions
            .iter()
            .filter(|d| d.outcome == GroupOutcome::Abandoned)
            .collect();
        assert_eq!(abandoned.len(), 1);
        assert_eq!(abandoned[0].favicon, icon("claro"));
        assert_eq!(inf.decisions.len(), flawless.decisions.len());

        // Degradation removes evidence but never invents any: the merge
        // groups are a strict subset of the flawless run's.
        assert!(inf.groups.iter().all(|g| flawless.groups.contains(g)));
        assert!(!inf
            .groups
            .iter()
            .any(|g| g.contains(&Asn::new(3)) || g.contains(&Asn::new(4))));
        // Unaffected groups are untouched.
        assert_eq!(inf.stats.merged_by_step1, 1);
        assert_eq!(inf.stats.framework_rejections, 1);
        assert_eq!(inf.stats.dont_know, 1);
    }

    #[test]
    fn folding_replies_completed_in_any_order_is_identical() {
        let llm = SimLlm::flawless();
        let sequential = favicon_inference(&report(), &llm);
        let outcomes = |inf: &FaviconInference| -> Vec<(FaviconHash, GroupOutcome)> {
            inf.decisions
                .iter()
                .map(|d| (d.favicon, d.outcome.clone()))
                .collect()
        };
        // Every completion order of the three step-2 calls.
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let plan = plan(&report(), true, &BTreeMap::new());
            assert_eq!(plan.requests().len(), 3);
            let mut slots = [None, None, None];
            for i in order {
                slots[i] = Some(llm.complete(&plan.requests()[i]));
            }
            let folded = plan.fold(slots.into_iter().map(Option::unwrap));
            assert_eq!(folded.groups, sequential.groups, "{order:?}");
            assert_eq!(folded.group_favicons, sequential.group_favicons);
            assert_eq!(folded.memo, sequential.memo);
            assert_eq!(folded.stats, sequential.stats);
            assert_eq!(outcomes(&folded), outcomes(&sequential));
        }
    }

    #[test]
    fn memo_replay_skips_calls_and_reproduces_groups() {
        let llm = SimLlm::flawless();
        let first = favicon_inference(&report(), &llm);
        assert_eq!(first.memo.len(), 3, "every step-2 verdict is memoized");
        assert_eq!(first.memo_hits, 0);
        assert_eq!(first.groups.len(), first.group_favicons.len());

        let replay = infer_over_memo(&report(), &llm, &first.memo);
        assert_eq!(replay.groups, first.groups);
        assert_eq!(replay.group_favicons, first.group_favicons);
        assert_eq!(replay.memo, first.memo);
        assert_eq!(replay.memo_hits, 3);
        assert_eq!(replay.stats.llm_calls, 0, "memo hits issue no calls");
        // The decision trail is reproduced verbatim, framework
        // rejections and declines included.
        assert_eq!(replay.stats.framework_rejections, 1);
        assert_eq!(replay.stats.dont_know, 1);
        assert_eq!(replay.decisions.len(), first.decisions.len());
    }

    #[test]
    fn memo_is_guarded_by_url_list_fingerprint() {
        let llm = SimLlm::flawless();
        let first = favicon_inference(&report(), &llm);

        // Same favicon, but the Claro group gains a third URL → its
        // memoized verdict must not be replayed.
        let web = SimWeb::builder()
            .page_at(
                "www.clarochile.cl",
                "https://www.clarochile.cl/personas/",
                Some(icon("claro")),
            )
            .page_at(
                "www.claropr.com",
                "https://www.claropr.com/personas/",
                Some(icon("claro")),
            )
            .page_at(
                "www.clarobr.com",
                "https://www.clarobr.com/personas/",
                Some(icon("claro")),
            )
            .build();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        let report = scraper.crawl(vec![
            (Asn::new(3), "www.clarochile.cl"),
            (Asn::new(4), "www.claropr.com"),
            (Asn::new(10), "www.clarobr.com"),
        ]);
        let inf = infer_over_memo(&report, &llm, &first.memo);
        assert_eq!(inf.memo_hits, 0, "grown URL list must not replay");
        assert_eq!(inf.stats.llm_calls, 1);
        assert_eq!(
            inf.groups,
            vec![vec![Asn::new(3), Asn::new(4), Asn::new(10)]]
        );
    }

    #[test]
    fn multiple_asns_on_one_final_url_travel_together() {
        let web = SimWeb::builder()
            .page("www.claroa.com", Some(icon("claro")))
            .page("www.clarob.com", Some(icon("claro")))
            .build();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        let report = scraper.crawl(vec![
            (Asn::new(1), "www.claroa.com"),
            (Asn::new(2), "www.claroa.com"),
            (Asn::new(3), "www.clarob.com"),
        ]);
        let llm = SimLlm::flawless();
        let inf = favicon_inference(&report, &llm);
        assert_eq!(inf.groups.len(), 1);
        assert_eq!(inf.groups[0], vec![Asn::new(1), Asn::new(2), Asn::new(3)]);
    }
}
