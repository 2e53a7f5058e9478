//! Simulation time and civil-calendar arithmetic.
//!
//! Simulation time is an integer number of seconds since the **experiment
//! epoch**, defined as 2010-01-01 00:00:00 in local (Helsinki) wall-clock
//! time. Integer seconds are exact, cheap to order, and fine-grained enough
//! for every process in the study (the fastest cadence is the 10-minute
//! synthetic-load cycle; the weather model is sampled minutely).
//!
//! Calendar conversions use the proleptic Gregorian "days from civil"
//! algorithm, so scenario code can express the paper's own dates directly:
//!
//! ```
//! use frostlab_simkern::time::{DateTime, SimTime};
//! let host15_failure = DateTime::new(2010, 3, 7, 4, 40, 0).unwrap().to_sim_time();
//! assert_eq!(SimTime::from_ymd_hms(2010, 3, 7, 4, 40, 0), host15_failure);
//! assert_eq!(host15_failure.datetime().to_string(), "2010-03-07 04:40:00");
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A calendar field combination that names no real instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeError {
    /// Month or day-of-month out of range for the given year.
    InvalidDate {
        /// Calendar year as given.
        year: i32,
        /// Month as given (valid: 1–12).
        month: u32,
        /// Day of month as given (valid: 1–`days_in_month`).
        day: u32,
    },
    /// Hour, minute or second out of range.
    InvalidTime {
        /// Hour as given (valid: 0–23).
        hour: u32,
        /// Minute as given (valid: 0–59).
        min: u32,
        /// Second as given (valid: 0–59).
        sec: u32,
    },
}

impl fmt::Display for TimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TimeError::InvalidDate { year, month, day } => {
                write!(f, "invalid calendar date {year:04}-{month:02}-{day:02}")
            }
            TimeError::InvalidTime { hour, min, sec } => {
                write!(f, "invalid time of day {hour:02}:{min:02}:{sec:02}")
            }
        }
    }
}

impl std::error::Error for TimeError {}

/// Seconds since 2010-01-01 00:00:00 local time (the experiment epoch).
///
/// The representation is signed so that times slightly before the epoch (for
/// example weather-model spin-up in late December 2009) remain expressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(i64);

/// A span between two [`SimTime`]s, in seconds. May be negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(i64);

/// The year of the experiment epoch.
const EPOCH_YEAR: i32 = 2010;

impl SimTime {
    /// The experiment epoch: 2010-01-01 00:00:00.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw seconds since the epoch.
    pub const fn from_secs(secs: i64) -> Self {
        SimTime(secs)
    }

    /// Construct from a civil date and time of day.
    ///
    /// # Panics
    /// Panics if the date or time is invalid — convenient for literals in
    /// scenario code; use [`DateTime::try_new`] when the fields come from
    /// data.
    pub fn from_ymd_hms(year: i32, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Self {
        DateTime::try_new(year, month, day, hour, min, sec)
            .map(DateTime::to_sim_time)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct from a civil date at midnight.
    ///
    /// # Panics
    /// Panics if the date is invalid (see [`Date::try_new`]).
    pub fn from_date(year: i32, month: u32, day: u32) -> Self {
        Self::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// Raw seconds since the epoch.
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Fractional days since the epoch (useful for plotting axes).
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// Seconds elapsed since local midnight, in `0..86_400`.
    fn seconds_of_day(self) -> u32 {
        self.0.rem_euclid(86_400) as u32
    }

    /// Hour of day as a fraction, in `0.0..24.0`.
    pub fn hour_of_day_f64(self) -> f64 {
        self.seconds_of_day() as f64 / 3_600.0
    }

    /// The civil calendar date of this instant.
    pub fn date(self) -> Date {
        let days = self.0.div_euclid(86_400);
        Date::from_days_since_epoch(days)
    }

    /// The full civil calendar date-time of this instant.
    pub fn datetime(self) -> DateTime {
        let sod = self.seconds_of_day();
        DateTime {
            date: self.date(),
            hour: sod / 3_600,
            min: (sod / 60) % 60,
            sec: sod % 60,
        }
    }

    /// Day of year, 1-based (Jan 1 = 1).
    pub fn day_of_year(self) -> u32 {
        self.date().day_of_year()
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0).max(0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from seconds.
    pub const fn secs(s: i64) -> Self {
        SimDuration(s)
    }

    /// Construct from minutes.
    pub const fn minutes(m: i64) -> Self {
        SimDuration(m * 60)
    }

    /// Construct from hours.
    pub const fn hours(h: i64) -> Self {
        SimDuration(h * 3_600)
    }

    /// Construct from days.
    pub const fn days(d: i64) -> Self {
        SimDuration(d * 86_400)
    }

    /// Raw seconds.
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Duration expressed as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600.0
    }

    /// Duration expressed as fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for SimTime {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.datetime())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0.abs();
        let sign = if self.0 < 0 { "-" } else { "" };
        let (d, rem) = (total / 86_400, total % 86_400);
        let (h, rem) = (rem / 3_600, rem % 3_600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{sign}{d}d {h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{sign}{h:02}:{m:02}:{s:02}")
        }
    }
}

/// A civil (proleptic Gregorian) calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Calendar year, e.g. 2010.
    pub year: i32,
    /// Month 1–12.
    pub month: u32,
    /// Day of month 1–31.
    pub day: u32,
}

/// A civil calendar date plus a time of day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DateTime {
    /// The calendar date.
    pub date: Date,
    /// Hour 0–23.
    pub hour: u32,
    /// Minute 0–59.
    pub min: u32,
    /// Second 0–59.
    pub sec: u32,
}

/// Month names for display, January first.
const MONTH_ABBREV: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Weekday names for display, Monday first (ISO order).
const WEEKDAY_ABBREV: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];

/// True if `year` is a leap year in the Gregorian calendar.
fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in the given month of the given year.
fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days from 1970-01-01 to `y-m-d` (Howard Hinnant's `days_from_civil`).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = m as i64;
    let d = d as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`] (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// Days from the experiment epoch (2010-01-01) to 1970-01-01's offset.
fn epoch_offset_days() -> i64 {
    days_from_civil(EPOCH_YEAR, 1, 1)
}

impl Date {
    /// Construct a date, validating month and day ranges.
    pub fn new(year: i32, month: u32, day: u32) -> Option<Date> {
        Date::try_new(year, month, day).ok()
    }

    /// Construct a date, reporting the offending fields on failure.
    pub fn try_new(year: i32, month: u32, day: u32) -> Result<Date, TimeError> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(TimeError::InvalidDate { year, month, day });
        }
        Ok(Date { year, month, day })
    }

    /// Date from whole days since the experiment epoch.
    fn from_days_since_epoch(days: i64) -> Date {
        let (year, month, day) = civil_from_days(days + epoch_offset_days());
        Date { year, month, day }
    }

    /// Whole days since the experiment epoch (negative before 2010).
    pub fn days_since_epoch(self) -> i64 {
        days_from_civil(self.year, self.month, self.day) - epoch_offset_days()
    }

    /// Midnight at the start of this date.
    pub fn to_sim_time(self) -> SimTime {
        SimTime(self.days_since_epoch() * 86_400)
    }

    /// Day of year, 1-based.
    pub fn day_of_year(self) -> u32 {
        // Jan 1 exists in every year, so go straight to the civil-day
        // arithmetic rather than through the validating constructor.
        (days_from_civil(self.year, self.month, self.day) - days_from_civil(self.year, 1, 1)) as u32
            + 1
    }

    /// ISO weekday index, 0 = Monday … 6 = Sunday.
    pub fn weekday_index(self) -> u32 {
        // 1970-01-01 was a Thursday (index 3 in Monday-first order).
        (days_from_civil(self.year, self.month, self.day) + 3).rem_euclid(7) as u32
    }

    /// Three-letter weekday name ("Mon", …).
    pub fn weekday(self) -> &'static str {
        WEEKDAY_ABBREV[self.weekday_index() as usize]
    }

    /// Short label used in figures, e.g. "Mar 07".
    pub fn short_label(self) -> String {
        format!(
            "{} {:02}",
            MONTH_ABBREV[(self.month - 1) as usize],
            self.day
        )
    }

    /// The following calendar day.
    pub fn succ(self) -> Date {
        Date::from_days_since_epoch(self.days_since_epoch() + 1)
    }
}

impl DateTime {
    /// Construct a date-time, validating all fields.
    pub fn new(year: i32, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Option<DateTime> {
        DateTime::try_new(year, month, day, hour, min, sec).ok()
    }

    /// Construct a date-time, reporting the offending fields on failure.
    pub fn try_new(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        min: u32,
        sec: u32,
    ) -> Result<DateTime, TimeError> {
        if hour >= 24 || min >= 60 || sec >= 60 {
            return Err(TimeError::InvalidTime { hour, min, sec });
        }
        Ok(DateTime {
            date: Date::try_new(year, month, day)?,
            hour,
            min,
            sec,
        })
    }

    /// Convert to simulation time.
    pub fn to_sim_time(self) -> SimTime {
        self.date.to_sim_time()
            + SimDuration::secs(
                i64::from(self.hour) * 3_600 + i64::from(self.min) * 60 + i64::from(self.sec),
            )
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:02}:{:02}:{:02}",
            self.date, self.hour, self.min, self.sec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_jan_1_2010() -> Result<(), TimeError> {
        let d = SimTime::ZERO.date();
        assert_eq!(d, Date::try_new(2010, 1, 1)?);
        assert_eq!(d.weekday(), "Fri"); // 2010-01-01 was a Friday.
        Ok(())
    }

    #[test]
    fn roundtrip_key_paper_dates() -> Result<(), TimeError> {
        // Every date mentioned in the paper.
        let cases = [
            (2010, 2, 12, "Fri"), // prototype start
            (2010, 2, 15, "Mon"), // prototype end
            (2010, 2, 19, "Fri"), // normal phase start
            (2010, 3, 7, "Sun"),  // host #15 first failure (Saturday per paper; see note)
            (2010, 3, 13, "Sat"), // last host installed
            (2010, 3, 17, "Wed"), // host #15 second failure
            (2010, 3, 26, "Fri"), // last Fig. 2 tick
        ];
        for (y, m, d, _wd) in cases {
            let date = Date::try_new(y, m, d)?;
            assert_eq!(Date::from_days_since_epoch(date.days_since_epoch()), date);
        }
        // Paper says "Saturday, March 7th"; 2010-03-07 was actually a Sunday.
        // We keep the calendar honest and note the discrepancy in EXPERIMENTS.md.
        assert_eq!(Date::try_new(2010, 3, 7)?.weekday(), "Sun");
        assert_eq!(Date::try_new(2010, 3, 17)?.weekday(), "Wed");
        Ok(())
    }

    #[test]
    fn datetime_roundtrip_exhaustive_day() -> Result<(), TimeError> {
        for hour in [0u32, 4, 12, 23] {
            for min in [0u32, 40, 59] {
                let dt = DateTime::try_new(2010, 3, 7, hour, min, 30)?;
                assert_eq!(dt.to_sim_time().datetime(), dt);
            }
        }
        Ok(())
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2008));
        assert!(!is_leap_year(2010));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2000));
        assert_eq!(days_in_month(2008, 2), 29);
        assert_eq!(days_in_month(2010, 2), 28);
    }

    #[test]
    fn negative_times_before_epoch() -> Result<(), TimeError> {
        let t = Date::try_new(2009, 12, 31)?.to_sim_time();
        assert!(t.as_secs() < 0);
        assert_eq!(t.date(), Date::try_new(2009, 12, 31)?);
        assert_eq!(t.seconds_of_day(), 0);
        Ok(())
    }

    #[test]
    fn seconds_of_day_and_hour() {
        let t = SimTime::from_ymd_hms(2010, 3, 7, 4, 40, 0);
        assert_eq!(t.seconds_of_day(), 4 * 3600 + 40 * 60);
        assert!((t.hour_of_day_f64() - (4.0 + 40.0 / 60.0)).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic_and_display() {
        let a = SimTime::from_date(2010, 2, 19);
        let b = SimTime::from_date(2010, 3, 13);
        let d = b - a;
        assert_eq!(d.as_days_f64(), 22.0);
        assert_eq!(format!("{d}"), "22d 00:00:00");
        assert_eq!(format!("{}", SimDuration::minutes(-90)), "-01:30:00");
        assert_eq!(a + d, b);
        assert_eq!(b - d, a);
    }

    #[test]
    fn day_of_year() {
        assert_eq!(SimTime::from_date(2010, 1, 1).day_of_year(), 1);
        assert_eq!(SimTime::from_date(2010, 2, 12).day_of_year(), 43);
        assert_eq!(SimTime::from_date(2010, 12, 31).day_of_year(), 365);
    }

    #[test]
    fn invalid_dates_rejected() {
        assert!(Date::new(2010, 2, 29).is_none());
        assert!(Date::new(2010, 13, 1).is_none());
        assert!(Date::new(2010, 0, 1).is_none());
        assert!(Date::new(2010, 4, 31).is_none());
        assert!(DateTime::new(2010, 1, 1, 24, 0, 0).is_none());
        assert!(DateTime::new(2010, 1, 1, 0, 60, 0).is_none());
    }

    #[test]
    fn typed_errors_name_the_offending_fields() {
        assert_eq!(
            Date::try_new(2010, 2, 29),
            Err(TimeError::InvalidDate {
                year: 2010,
                month: 2,
                day: 29
            })
        );
        assert_eq!(
            DateTime::try_new(2010, 1, 1, 24, 0, 0),
            Err(TimeError::InvalidTime {
                hour: 24,
                min: 0,
                sec: 0
            })
        );
        assert_eq!(
            TimeError::InvalidDate {
                year: 2010,
                month: 2,
                day: 29
            }
            .to_string(),
            "invalid calendar date 2010-02-29"
        );
        assert_eq!(
            TimeError::InvalidTime {
                hour: 24,
                min: 0,
                sec: 0
            }
            .to_string(),
            "invalid time of day 24:00:00"
        );
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_secs(50);
        assert_eq!(b.duration_since(a), SimDuration::ZERO);
        assert_eq!(a.duration_since(b), SimDuration::secs(50));
    }

    #[test]
    fn short_label_format() -> Result<(), TimeError> {
        assert_eq!(Date::try_new(2010, 3, 7)?.short_label(), "Mar 07");
        assert_eq!(Date::try_new(2010, 12, 25)?.short_label(), "Dec 25");
        Ok(())
    }

    #[test]
    fn succ_crosses_month_and_year() -> Result<(), TimeError> {
        assert_eq!(
            Date::try_new(2010, 2, 28)?.succ(),
            Date::try_new(2010, 3, 1)?
        );
        assert_eq!(
            Date::try_new(2009, 12, 31)?.succ(),
            Date::try_new(2010, 1, 1)?
        );
        Ok(())
    }
}
