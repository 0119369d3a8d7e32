import pytest

from gat.equality import ReplayError, record_verdicts, replay_trace


def replay_ok(th, trace) -> bool:
    """Replay a verdict trace: of terms, sorts or substitutions alike."""
    out = replay_trace(th, trace.start, trace)
    return not isinstance(out, ReplayError) and out == trace.end


@pytest.fixture
def criterion_report(request):
    """Emit a per-criterion verdict line on the live terminal, then assert."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def report(n: int, name: str, ok: bool) -> None:
        line = f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line, flush=True)
        assert ok, f"criterion {n} ({name}) failed"

    return report


@pytest.fixture(scope="module", autouse=True)
def _replay_every_recorded_verdict():
    # safety net: every Equal verdict and normal form produced anywhere in
    # the run must survive independent replay.  Each module's net replays
    # its verdicts at the module's teardown and then lets go of them and of
    # their theories, so none outlives its module.
    with record_verdicts() as log:
        yield
    seen = set()
    bad = 0
    for th, trace in log:
        key = (id(th), trace)
        if key in seen:
            continue
        seen.add(key)
        if not replay_ok(th, trace):
            bad += 1
    assert bad == 0, f"{bad} recorded verdicts failed to replay"
