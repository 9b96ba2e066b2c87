//! The one command-line parser of `fig8`, `fig9`, `report`,
//! `cgra-lint`, `trace_oracle` and every `cgra-mt` command.
//!
//! A binary declares a [`Spec`], and [`Spec::parse`] reads its arguments
//! by the same rules everywhere: a valued flag's value is never a flag
//! (it must not start with `--` or be one of the binary's flags, so `-5`
//! is a value), `-j` is `--jobs`, and a flag given twice, an unknown flag
//! (any other argument starting with `-`) or a stray argument is an
//! [`Error`], on which the binary exits 2.

use crate::engine::Engine;
use std::fmt::{self, Display};
use std::num::NonZeroUsize;
use std::str::FromStr;

/// Flag names, such as `--csv`.
pub type Flags = &'static [&'static str];

/// What a binary, or a `cgra-mt` command, takes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Flags that stand alone, such as `--csv`.
    pub switches: Flags,
    /// Flags that take a value, such as `--trace`; `-j` is `--jobs`.
    pub valued: Flags,
    /// The positional argument, such as `<kernel>`, if any.
    pub positional: Option<&'static str>,
}

/// A command line its [`Spec`] does not take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An unknown flag or a stray argument, and what the command takes.
    Unexpected(String, String),
    /// A valued flag with no value after it.
    Missing(&'static str),
    /// A flag given more than once.
    Repeated(&'static str),
    /// A flag, its value, and why the value is not taken.
    Invalid(&'static str, String, String),
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Unexpected(arg, takes) if arg.starts_with('-') => {
                write!(f, "unknown flag {arg:?}; expected {takes}")
            }
            Error::Unexpected(arg, takes) => {
                write!(f, "unexpected argument {arg:?}; expected {takes}")
            }
            Error::Missing(flag) => write!(f, "{flag}: the value is missing"),
            Error::Repeated(flag) => write!(f, "{flag} is given more than once"),
            Error::Invalid(flag, value, why) => write!(f, "{flag} {value:?}: {why}"),
        }
    }
}

impl Spec {
    /// Read `args`, the arguments after the command, for the binary `bin`.
    ///
    /// # Errors
    /// The first argument this spec does not take.
    pub fn parse(
        self,
        bin: &'static str,
        args: impl Iterator<Item = String>,
    ) -> Result<Args, Error> {
        let (mut given, mut positional) = (Vec::new(), None);
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let Some(flag) = self.flag(&arg) else {
                if arg.starts_with('-') || self.positional.is_none() || positional.is_some() {
                    return Err(Error::Unexpected(arg, self.takes()));
                }
                positional = Some(arg);
                continue;
            };
            if given.iter().any(|(f, _)| *f == flag) {
                return Err(Error::Repeated(flag));
            }
            let switch = self.switches.contains(&flag);
            let value = args.next_if(|v| !switch && !v.starts_with("--") && self.flag(v).is_none());
            if !switch && value.is_none() {
                return Err(Error::Missing(flag));
            }
            given.push((flag, value));
        }
        Ok(Args {
            bin,
            spec: self,
            given,
            positional,
        })
    }

    /// [`Spec::parse`] of the process's arguments after the first `skip`,
    /// or exit 2 naming the error.
    pub fn parse_env(self, bin: &'static str, skip: usize) -> Args {
        let args = self.parse(bin, std::env::args().skip(skip));
        args.unwrap_or_else(|e| exit(bin, e))
    }

    /// The flag `arg` is, if any.
    fn flag(&self, arg: &str) -> Option<&'static str> {
        let arg = if arg == "-j" { "--jobs" } else { arg };
        let mut flags = self.switches.iter().chain(self.valued);
        flags.find(|f| **f == arg).copied()
    }

    /// What the command takes, for [`Error::Unexpected`].
    fn takes(&self) -> String {
        let mut all: Vec<String> = self.positional.iter().map(|p| p.to_string()).collect();
        all.extend(self.valued.iter().map(|f| format!("{f} <value>")));
        all.extend(self.switches.iter().map(|f| f.to_string()));
        match all.is_empty() {
            true => "no arguments".into(),
            false => all.join(", "),
        }
    }
}

/// A command line its [`Spec`] takes.
#[derive(Debug, Clone)]
pub struct Args {
    bin: &'static str,
    spec: Spec,
    /// Each flag given, with its value if it takes one.
    given: Vec<(&'static str, Option<String>)>,
    positional: Option<String>,
}

impl Args {
    /// What was given for `flag`, which the spec must declare.
    fn given(&self, flag: &str) -> Option<&(&'static str, Option<String>)> {
        assert_eq!(self.spec.flag(flag), Some(flag), "{flag} is not declared");
        self.given.iter().find(|(f, _)| *f == flag)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    /// The value of `flag`, if given.
    pub fn str(&self, flag: &str) -> Option<&str> {
        self.given(flag)?.1.as_deref()
    }

    /// The value of `flag` as a `T`, if given.
    ///
    /// # Errors
    /// [`Error::Invalid`] if the value does not parse.
    pub fn value<T: FromStr<Err: Display>>(&self, flag: &str) -> Result<Option<T>, Error> {
        let Some((flag, Some(value))) = self.given(flag) else {
            return Ok(None);
        };
        let invalid = |e: T::Err| Error::Invalid(flag, value.clone(), e.to_string());
        value.parse().map(Some).map_err(invalid)
    }

    /// The positional argument, if given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// An engine with `--jobs` workers, or [`Engine::default`] without
    /// the flag.
    ///
    /// # Errors
    /// [`Error::Invalid`] if the value is not a positive integer.
    pub fn engine(&self) -> Result<Engine, Error> {
        let jobs = self.value::<NonZeroUsize>("--jobs")?;
        Ok(jobs.map_or_else(Engine::default, |n| Engine::with_jobs(n.get())))
    }

    /// Exit 2 naming `error` after the binary.
    pub fn exit(&self, error: impl Display) -> ! {
        exit(self.bin, error)
    }

    /// The value of `result`, or [`Args::exit`] naming its error.
    pub fn or_exit<T>(&self, result: Result<T, impl Display>) -> T {
        result.unwrap_or_else(|e| self.exit(e))
    }
}

/// The command of a binary that has commands (`cgra-mt`): its first
/// argument, if any. [`Spec::parse_env`] with `skip = 2` reads the rest.
pub fn command() -> Option<String> {
    std::env::args().nth(1)
}

fn exit(bin: &str, error: impl Display) -> ! {
    eprintln!("{bin}: {error}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG: Spec = Spec {
        switches: &["--csv", "--metrics"],
        valued: &["--jobs", "--trace"],
        positional: None,
    };

    const CMD: Spec = Spec {
        switches: &["--placements"],
        valued: &["--cgra", "--iters"],
        positional: Some("<kernel>"),
    };

    fn parse(spec: Spec, args: &[&str]) -> Result<Args, Error> {
        spec.parse("bin", args.iter().map(|a| a.to_string()))
    }

    fn jobs(args: &[&str]) -> Result<Engine, Error> {
        parse(FIG, args)?.engine()
    }

    #[test]
    fn jobs_parse_as_a_positive_integer() {
        assert_eq!(jobs(&["--csv", "--jobs", "3"]).unwrap().jobs, 3);
        assert_eq!(jobs(&["-j", "12"]).unwrap().jobs, 12);
        assert_eq!(jobs(&[]).unwrap().jobs, Engine::default().jobs);
        for bad in ["0", "-1", "x"] {
            for flag in ["--jobs", "-j"] {
                let err = jobs(&[flag, bad]).unwrap_err();
                assert!(
                    matches!(&err, Error::Invalid("--jobs", value, _) if value == bad),
                    "{flag} {bad}: {err:?}"
                );
                assert!(err.to_string().starts_with(&format!("--jobs \"{bad}\": ")));
            }
        }
        for flag in ["--jobs", "-j"] {
            assert_eq!(
                jobs(&["--csv", flag]).unwrap_err(),
                Error::Missing("--jobs")
            );
        }
    }

    #[test]
    fn a_valued_flag_never_takes_a_flag_as_its_value() {
        for args in [
            &["--trace", "--metrics"][..],
            &["--trace", "-j", "2"],
            &["--trace", "--bogus"],
            &["--csv", "--trace"],
        ] {
            assert_eq!(
                parse(FIG, args).unwrap_err(),
                Error::Missing("--trace"),
                "{args:?}"
            );
        }
        let err = parse(CMD, &["--cgra"]).unwrap_err();
        assert_eq!(err.to_string(), "--cgra: the value is missing");
        // A value that looks like a number with a sign is still a value.
        let args = parse(CMD, &["builtin:fir", "--iters", "-5"]).unwrap();
        assert_eq!(args.str("--iters"), Some("-5"));
        let err = args.value::<usize>("--iters").unwrap_err();
        assert_eq!(
            err.to_string(),
            "--iters \"-5\": invalid digit found in string"
        );
    }

    #[test]
    fn a_flag_given_twice_is_an_error() {
        for (spec, args, flag) in [
            (FIG, &["-j", "1", "--jobs", "2"][..], "--jobs"),
            (FIG, &["-j", "1", "-j", "1"], "--jobs"),
            (FIG, &["--csv", "--csv"], "--csv"),
            (CMD, &["k", "--cgra", "4", "--cgra", "6"], "--cgra"),
        ] {
            let err = parse(spec, args).unwrap_err();
            assert_eq!(err, Error::Repeated(flag), "{args:?}");
            assert_eq!(err.to_string(), format!("{flag} is given more than once"));
        }
    }

    #[test]
    fn unknown_flags_and_stray_arguments_name_what_the_command_takes() {
        let err = parse(FIG, &["--csv", "--stirct", "-j", "2"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown flag \"--stirct\"; expected --jobs <value>, --trace <value>, \
             --csv, --metrics"
        );
        let err = parse(CMD, &["k", "extra"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unexpected argument \"extra\"; expected <kernel>, --cgra <value>, \
             --iters <value>, --placements"
        );
        let none = Spec {
            switches: &[],
            valued: &[],
            positional: None,
        };
        let err = parse(none, &["extra"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unexpected argument \"extra\"; expected no arguments"
        );
        // `-j` is a flag only where `--jobs` is.
        assert!(matches!(
            parse(CMD, &["-j", "2"]),
            Err(Error::Unexpected(..))
        ));
    }

    #[test]
    fn parsed_arguments_read_back() {
        let args = parse(CMD, &["--cgra", "6", "builtin:fir", "--placements"]).unwrap();
        assert_eq!(args.positional(), Some("builtin:fir"));
        assert!(args.switch("--placements"));
        assert_eq!(args.value::<u16>("--cgra").unwrap(), Some(6));
        assert_eq!(args.value::<usize>("--iters").unwrap(), None);
        let args = parse(FIG, &[]).unwrap();
        assert!(!args.switch("--csv"));
        assert_eq!(args.str("--trace"), None);
    }

    #[test]
    #[should_panic(expected = "--cvs is not declared")]
    fn an_undeclared_flag_is_a_bug_in_the_binary() {
        parse(FIG, &[]).unwrap().switch("--cvs");
    }
}
