"""Property tests: the input parsers and the CLI never crash on bad input.

Each parser either returns a value or raises ValidationError.  The runs
are derandomized and keep no example database, so they are repeatable.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tribell import cli, qcore

FUZZ = settings(derandomize=True, database=None, max_examples=150,
                deadline=None)

SETTINGS_TEXT = "".join(f"{name}: pi/2 0\n" for name in
                        ("a", "a_prime", "b", "b_prime", "c", "c_prime"))

# Lines built from the grammar's own pieces reach deeper than random text.
KEYS = st.sampled_from(["family", "theta", "theta3", "alpha", "beta",
                        "gamma", "amp0", "amp3", "amp7", "a", "a_prime",
                        "b", "b_prime", "c", "c_prime", "bogus"])
VALUES = st.one_of(
    st.sampled_from(["ghz", "w", "raw", "pi/4", "-3pi/8", "pi/0", "0.6",
                     "0.8", "nan", "inf", "-1e999", "[1, 0]", "[0.6, 0.8]",
                     "[nan, 0]", "[1]", "pi/2 0", "0 pi", "inf 0", ""]),
    st.text(max_size=12),
)
LINES = st.lists(st.tuples(KEYS, VALUES), max_size=8).map(
    lambda pairs: "".join(f"{key}: {value}\n" for key, value in pairs))


def _parses_or_rejects(parse, text):
    try:
        parse(text)
    except qcore.ValidationError:
        pass


@FUZZ
@given(st.one_of(st.text(max_size=20),
                 st.from_regex(r"-?\d{0,3}(\.\d{1,3})?(\*?pi)?(/\d{0,3})?",
                               fullmatch=True)))
def test_parse_number_parses_or_rejects(text):
    _parses_or_rejects(lambda literal: cli.parse_number(literal, "theta"),
                       text)


@FUZZ
@given(st.one_of(LINES, st.text(max_size=80)))
def test_parse_state_spec_parses_or_rejects(text):
    _parses_or_rejects(cli.parse_state_spec, text)


@FUZZ
@given(st.one_of(LINES, st.text(max_size=80)))
def test_parse_settings_file_parses_or_rejects(text):
    _parses_or_rejects(cli.parse_settings_file, text)


@settings(FUZZ, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(max_size=80),
                      LINES.map(lambda text: text.encode("utf-8"))))
@example(data=b"\xfffamily: ghz\ntheta: pi/4\ntheta3: pi/2\n")
def test_simulate_on_arbitrary_state_bytes_exits_cleanly(data, tmp_path,
                                                         capsys):
    state = tmp_path / "state.txt"
    state.write_bytes(data)
    settings_file = tmp_path / "settings.txt"
    settings_file.write_text(SETTINGS_TEXT)
    code = cli.main(["simulate", "--state", str(state), "--settings",
                     str(settings_file), "--shots", "1"])
    capsys.readouterr()
    assert code in (0, 2, 3)
