//! Announcement collections and the chronological year split.

use crate::family::ProcessorFamily;
use crate::generator::generate_family;
use crate::schema::Announcement;
use linalg::stats::{range_ratio, variation};
use serde::{Deserialize, Serialize};

/// A set of announcements for one processor family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnnouncementSet {
    /// The family all records belong to.
    pub family: ProcessorFamily,
    /// The records, in generation (chronological) order.
    pub records: Vec<Announcement>,
}

impl AnnouncementSet {
    /// Generate the family's full synthetic history.
    pub fn generate(family: ProcessorFamily, seed: u64) -> Self {
        AnnouncementSet {
            family,
            records: generate_family(family, seed),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records announced in `year`.
    pub fn year(&self, year: u32) -> Vec<&Announcement> {
        self.records.iter().filter(|r| r.year == year).collect()
    }

    /// The chronological split the paper uses: train on `train_year`,
    /// predict `train_year + 1`. Either side being empty is
    /// [`fault::Error::DegenerateData`] naming the missing year.
    pub fn try_chronological_split(
        &self,
        train_year: u32,
    ) -> fault::Result<(Vec<&Announcement>, Vec<&Announcement>)> {
        let train = self.year(train_year);
        let test = self.year(train_year + 1);
        if train.is_empty() || test.is_empty() {
            return Err(fault::Error::degenerate(format!(
                "{}: {} announcements in {train_year}, {} in {}; the chronological \
                 protocol needs both years populated",
                self.family.name(),
                train.len(),
                test.len(),
                train_year + 1
            )));
        }
        Ok((train, test))
    }

    /// All SPECint rates.
    pub fn rates(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.specint_rate).collect()
    }

    /// §4.1-style summary: (records, range, variation).
    pub fn summary(&self) -> (usize, f64, f64) {
        let rates = self.rates();
        (self.records.len(), range_ratio(&rates), variation(&rates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chronological_split_2005_2006_exists_for_all_families() {
        for f in ProcessorFamily::ALL {
            let set = AnnouncementSet::generate(f, 42);
            let (train, test) = set.try_chronological_split(2005).expect("2005/2006 split");
            assert!(train.len() >= 10, "{}: train {}", f.name(), train.len());
            assert!(test.len() >= 10, "{}: test {}", f.name(), test.len());
            assert!(train.iter().all(|r| r.year == 2005));
            assert!(test.iter().all(|r| r.year == 2006));
        }
    }

    #[test]
    fn summary_reports_population_stats() {
        let set = AnnouncementSet::generate(ProcessorFamily::Opteron, 42);
        let (n, range, var) = set.summary();
        assert_eq!(n, 138);
        assert!(range > 1.0);
        assert!(var > 0.0);
    }

    #[test]
    fn year_filter_is_exact() {
        let set = AnnouncementSet::generate(ProcessorFamily::Xeon, 42);
        let y2004 = set.year(2004);
        assert!(!y2004.is_empty());
        assert!(y2004.iter().all(|r| r.year == 2004));
        assert!(set.year(1990).is_empty());
    }

    #[test]
    fn split_outside_span_is_degenerate() {
        let set = AnnouncementSet::generate(ProcessorFamily::PentiumD, 42);
        let e = set
            .try_chronological_split(1999)
            .expect_err("no 1999 announcements");
        assert_eq!(e.kind(), "degenerate");
        assert!(e.to_string().contains("1999"), "{e}");
    }
}
