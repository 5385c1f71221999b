use crate::run::{run, Options};
use crate::spans::{check_nesting, self_times_ns, Span};
use crate::{render, spec_mismatches, Spec};

/// Every workload, untraced and traced, at one op and one set-up: every
/// metric `BENCHMARK.json` lists is printed with its unit, every check
/// passes, and the traced run's spans nest with non-negative self times.
///
/// One test, not one per workload: the workloads share the process-wide
/// trace cache, which each clears and fills.
#[test]
fn every_workload_prints_every_metric_and_its_spans_nest() {
    let spec = Spec::load();
    for workload in crate::workloads::NAMES {
        for trace in [false, true] {
            let opts = Options {
                min_ops: 1,
                min_setups: 1,
                ..Options::new(workload, 3, 0.0, trace)
            };
            let o = run(&opts).expect("known workload");
            let what = format!("{workload} (trace {trace})");
            assert!(o.errors.is_empty(), "{what}: {:?}", o.errors);
            assert_eq!(o.failed, 0, "{what}: failed ops");
            assert!(
                spec_mismatches(&spec, trace, &o.metrics).is_empty(),
                "{what}"
            );
            let lines = render(&o.metrics);
            let listed = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            for m in listed {
                let printed = lines.iter().any(|l| {
                    let words: Vec<&str> = l.split_whitespace().collect();
                    words.len() == 3 && words[0] == m.name && words[2] == m.unit
                });
                assert!(printed, "{what}: {} [{}] not printed", m.name, m.unit);
            }
            if trace {
                assert!(!o.spans.is_empty(), "{what}: no spans");
                check_nesting(&o.spans).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(self_times_ns(&o.spans).iter().all(|&s| s >= 0), "{what}");
            }
        }
    }
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        name: "x",
        start_ns,
        end_ns,
        parent,
        op: 0,
        thread: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_concurrent_children() {
    // Two children on different workers overlap in 40..60.
    let spans = [
        span(1, None, 0, 100),
        span(2, Some(1), 10, 60),
        span(3, Some(1), 40, 80),
    ];
    check_nesting(&spans).expect("nested");
    assert_eq!(self_times_ns(&spans), vec![30, 50, 40]);
    let escaped = [span(1, None, 0, 100), span(2, Some(1), 90, 120)];
    assert!(check_nesting(&escaped).is_err());
}
