//! What a virtual host serves.

use borges_types::{FaviconHash, Url};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a redirect is implemented on the wire.
///
/// The distinction matters because only a browser-grade client executes
/// JavaScript: the paper uses Selenium headless precisely so that
/// [`RedirectKind::JavaScript`] hops resolve (§4.3.1). A plain HTTP client
/// sees a 200 page and stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RedirectKind {
    /// An HTTP `3xx` + `Location:` header. Any client follows it.
    Http,
    /// `<meta http-equiv="refresh">`. Any HTML-aware client follows it.
    MetaRefresh,
    /// `window.location = …` in page JavaScript. Only a JS-executing
    /// (headless-browser) client follows it.
    JavaScript,
}

impl fmt::Display for RedirectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RedirectKind::Http => "http-3xx",
            RedirectKind::MetaRefresh => "meta-refresh",
            RedirectKind::JavaScript => "javascript",
        })
    }
}

/// What one virtual host serves.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteNode {
    /// A landing page.
    Page {
        /// The canonical URL the site settles on (a host may serve its
        /// content under a path, e.g. `/personas/` in the paper's Claro
        /// examples).
        canonical: Url,
        /// The favicon served with the page, if any (3 of the paper's
        /// 20,094 final URLs had none).
        favicon: Option<FaviconHash>,
    },
    /// A redirect to another URL.
    Redirect {
        /// Redirect target.
        to: Url,
        /// Mechanism.
        kind: RedirectKind,
    },
    /// The host does not answer (DNS failure, timeout, 5xx…). The paper
    /// found ~17% of referenced websites unavailable.
    Down,
}

impl SiteNode {
    /// Convenience: a page whose canonical URL is `https://<host>/`.
    pub fn page(host: &str, favicon: Option<FaviconHash>) -> SiteNode {
        SiteNode::Page {
            canonical: Url::https(host).expect("valid host literal"),
            favicon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_helper_builds_https_canonical() {
        let n = SiteNode::page("www.lumen.com", None);
        match n {
            SiteNode::Page { canonical, favicon } => {
                assert_eq!(canonical.to_string(), "https://www.lumen.com/");
                assert!(favicon.is_none());
            }
            _ => panic!("expected page"),
        }
    }

    #[test]
    fn redirect_kinds_display() {
        assert_eq!(RedirectKind::Http.to_string(), "http-3xx");
        assert_eq!(RedirectKind::JavaScript.to_string(), "javascript");
    }
}
