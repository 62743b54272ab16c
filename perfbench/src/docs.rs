//! The six standard documents, generated once per set-up and shipped as
//! text — the input every workload loads.

use xmldb::gen::{auction, bib, prices, reviews};
use xmldb::{parse_document, Catalog};

/// Record count of every generated document (the paper's middle scale).
pub const SCALE: usize = 1000;
/// Generator seed of the documents. Documents are fixed; the workload
/// seed varies only the op stream.
pub const DOC_SEED: u64 = 42;

/// One document as it travels to the service.
#[derive(Clone)]
pub struct DocText {
    pub uri: String,
    pub xml: String,
}

fn dtd_of(uri: &str) -> &'static str {
    match uri {
        "bib.xml" => bib::BIB_DTD,
        "reviews.xml" => reviews::REVIEWS_DTD,
        "prices.xml" => prices::PRICES_DTD,
        "users.xml" => auction::USERS_DTD,
        "items.xml" => auction::ITEMS_DTD,
        "bids.xml" => auction::BIDS_DTD,
        other => panic!("no DTD known for `{other}`"),
    }
}

/// Generate the standard catalog and serialize each document with its
/// DTD as an internal subset, so a loaded copy keeps the schema facts
/// the unnesting rewrites check.
pub fn standard_texts() -> Vec<DocText> {
    let catalog = xmldb::gen::standard_catalog(SCALE, 2, DOC_SEED);
    catalog
        .iter()
        .map(|(_, doc)| {
            let root = doc
                .root_element()
                .and_then(|r| doc.node_name(r))
                .expect("generated documents have a root element");
            DocText {
                uri: doc.uri.clone(),
                xml: format!(
                    "<!DOCTYPE {root} [{}]>{}",
                    dtd_of(&doc.uri),
                    xmldb::serializer::serialize_document(doc)
                ),
            }
        })
        .collect()
}

/// Identity of the catalog state the texts describe.
pub fn state_key(docs: &[DocText]) -> u64 {
    let mut all = Vec::new();
    for d in docs {
        all.extend_from_slice(d.uri.as_bytes());
        all.push(0);
        all.extend_from_slice(d.xml.as_bytes());
        all.push(0);
    }
    crate::stats::digest(&all)
}

/// Parse the texts into a fresh catalog (the replica reference outputs
/// are computed on).
pub fn parse_catalog(docs: &[DocText]) -> Catalog {
    let mut catalog = Catalog::new();
    for d in docs {
        catalog.register(parse_document(&d.uri, &d.xml).expect("generated documents parse"));
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn texts_round_trip_with_their_dtd() {
        let docs = standard_texts();
        assert_eq!(docs.len(), 6);
        let catalog = parse_catalog(&docs);
        for (_, doc) in catalog.iter() {
            assert!(doc.dtd.is_some(), "{} lost its DTD", doc.uri);
        }
    }
}
