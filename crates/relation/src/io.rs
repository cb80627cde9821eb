//! Text parsing of values: `YYYY-MM-DD` dates, as SQL `DATE` literals spell
//! them.

use crate::error::RelError;
use crate::value::Date;
use crate::Result;

/// Parse `YYYY-MM-DD`.
pub fn parse_date(text: &str) -> Result<Date> {
    let mut it = text.splitn(3, '-');
    let (y, m, d) = (it.next(), it.next(), it.next());
    match (y, m, d) {
        (Some(y), Some(m), Some(d)) => {
            let y: i32 = y.parse().map_err(|_| RelError::Parse(format!("bad date `{text}`")))?;
            let m: u32 = m.parse().map_err(|_| RelError::Parse(format!("bad date `{text}`")))?;
            let d: u32 = d.parse().map_err(|_| RelError::Parse(format!("bad date `{text}`")))?;
            if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
                return Err(RelError::Parse(format!("date out of range `{text}`")));
            }
            Ok(Date::from_ymd(y, m, d))
        }
        _ => Err(RelError::Parse(format!("bad date `{text}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_parsing() {
        assert_eq!(parse_date("1996-01-02").unwrap(), Date::from_ymd(1996, 1, 2));
        assert!(parse_date("1996/01/02").is_err());
        assert!(parse_date("1996-1").is_err());
    }
}
