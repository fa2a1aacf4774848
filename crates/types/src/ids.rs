//! Autonomous system numbers and vantage-point identifiers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A vantage point's position in a campaign's vantage roster.
///
/// Newtype over `u16` so a vantage index cannot be confused with a block
/// index or a round number in fan-out code. `VantageId(0)` is the first
/// roster entry; the implicit vantage of an empty roster has no id.
///
/// ```
/// use fbs_types::VantageId;
/// assert_eq!(VantageId(2).to_string(), "vp2");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct VantageId(pub u16);

impl VantageId {
    /// Returns the raw roster index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VantageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vp{}", self.0)
    }
}

impl From<u16> for VantageId {
    fn from(v: u16) -> Self {
        VantageId(v)
    }
}

/// An autonomous system number (32-bit, per RFC 6793).
///
/// Newtype over `u32` so that AS numbers cannot be confused with counts or
/// block identifiers in function signatures.
///
/// ```
/// use fbs_types::Asn;
/// let status = Asn(25482);
/// assert_eq!(status.to_string(), "AS25482");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Asn(pub u32);

impl Asn {
    /// Returns the raw numeric value.
    #[inline]
    pub fn value(self) -> u32 {
        self.0
    }

    /// Whether this ASN falls in a private-use range (RFC 6996).
    pub fn is_private(self) -> bool {
        (64512..=65534).contains(&self.0) || (4_200_000_000..=4_294_967_294).contains(&self.0)
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl std::str::FromStr for Asn {
    type Err = crate::FbsError;

    /// Parses `"AS25482"` or plain `"25482"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| crate::FbsError::parse("invalid ASN", s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_forms() {
        assert_eq!("AS25482".parse::<Asn>().unwrap(), Asn(25482));
        assert_eq!("25482".parse::<Asn>().unwrap(), Asn(25482));
        assert!("ASxyz".parse::<Asn>().is_err());
    }

    #[test]
    fn private_ranges() {
        assert!(Asn(64512).is_private());
        assert!(Asn(65534).is_private());
        assert!(!Asn(25482).is_private());
        assert!(Asn(4_200_000_000).is_private());
    }

    #[test]
    fn ordering_follows_value() {
        assert!(Asn(1) < Asn(2));
    }
}
