"""The output check must count a corrupted output as a failed operation."""

import run
import workloads
from small import SMALL


def _run(workload):
    spec = SMALL[workload](5)
    eve, _, _ = run._setup(spec, run._config())
    record = run._timed(eve, spec)
    return spec, eve, record


def test_clean_run_has_no_failures():
    spec, eve, record = _run("maintain")
    failed, problems = run._check(eve, spec, record, run._LazyReference(spec))
    eve.close()
    assert (failed, problems) == (0, [])


def test_corrupted_extent_is_counted_as_failed():
    spec, eve, record = _run("maintain")
    extent = eve.extent("M0")
    extent.insert((999_999, -1))
    failed, problems = run._check(eve, spec, record, run._LazyReference(spec))
    eve.close()
    assert failed == 1 and "M0" in problems[0]


def test_corrupted_committed_qc_is_counted_as_failed():
    spec, eve, record = _run("evolve")
    name = next(iter(record["log"].by_view))
    record["log"].by_view[name][-1] = "0.0"
    failed, _ = run._check(eve, spec, record, run._LazyReference(spec))
    eve.close()
    assert failed == 1


def test_torn_and_regressing_reads_are_counted_as_failed():
    spec, eve, record = _run("serve_mixed")
    reads = [r for r in record["reads"] if "rows" in r]
    reads[0]["rows"] = reads[0]["rows"] + ((0, 0, 0),)
    failed, problems = run._check(eve, spec, record, run._LazyReference(spec))
    assert failed == 1 and "per-version replay" in problems[-1]
    reads[0]["rows"] = reads[0]["rows"][:-1]
    reads[-1]["version"] = -5  # older than every earlier read
    assert workloads.check_reads(record, _expected(spec, record)) == 1
    eve.close()


def _expected(spec, record):
    import check

    _, digests = check.reference_replay(
        spec, workloads.reads_by_version(record),
        workloads.write_versions(record),
    )
    return digests
