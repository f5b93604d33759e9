//! Fixture: `bad-allow` fires on unknown rules, missing reasons and the
//! retired dataflow directives.

// nmt-lint: allow(no-such-rule) — misspelled rule name
//~^ ERROR bad-allow

// nmt-lint: sanitize(determinism-flow) — the sanitize directive is gone
//~^ ERROR bad-allow

// nmt-lint: allow(determinism-flow) — so is the dataflow rule
//~^ ERROR bad-allow

pub fn unjustified(x: Option<u8>) -> u8 {
    // nmt-lint: allow(panic)
    //~^ ERROR bad-allow
    x.unwrap() //~ ERROR panic
}
