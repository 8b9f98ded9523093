import io
import json

from orecert import certificates as certs
from orecert import ore
from orecert.cli import main
from orecert.groups import make_backend
from orecert.ore import verify_solution


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_wp_metabelian_commutator():
    code, out, _ = run("wp", "--backend", "mb:2", "a b A B")
    assert (code, out) == (0, "nontrivial\n")


def test_wp_trivial_word():
    code, out, _ = run("wp", "--backend", "mb:2", "a A")
    assert (code, out) == (0, "trivial\n")


def test_wp_f_backend_relation():
    code, out, _ = run("wp", "--backend", "f", "x1 x0 x2^-1 x0^-1")
    assert (code, out) == (0, "trivial\n")


def test_canon():
    code, out, _ = run("canon", "--backend", "posmon", "x2 x1 x0")
    assert (code, out) == (0, "x0 x2 x4\n")


def test_alt_check():
    assert run("alt-check", "x0 x1")[:2] == (0, "true\n")
    assert run("alt-check", "x1 x0")[:2] == (0, "false\n")
    assert run("alt-check", "--cyclic", "x1 x0")[:2] == (0, "true\n")


def test_alt_trace_json_default():
    code, out, _ = run("alt-trace", "x0 x1 x0^-1 x1^-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "trace"
    assert doc["verdict"] == "nontrivial"
    assert doc["witness"] == "exponent sum of x1 is +1"
    assert doc["steps"][-1]["rule"] == "witness"


def test_alt_trace_rejects_non_alternating():
    code, _, err = run("alt-trace", "x0 x2")
    assert code == 2
    assert "alternating" in err


def test_word_syntax_error_is_usage_error():
    code, _, err = run("wp", "--backend", "zm:2", "a^")
    assert code == 2


def test_ore_search_positive_control():
    code, out, _ = run(
        "ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
        "--max-support", "2", "--pool-len", "1",
    )
    assert code == 0
    assert out == "solution\nU: (0,0), (0,1)\nV: (0,0), (1,0)\nverified: true\n"


def test_ore_search_exhausted_exit_code():
    code, out, _ = run(
        "ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
        "--max-support", "2", "--pool-len", "2", "--pool-idx", "2",
    )
    assert (code, out) == (3, "exhausted\n")


def test_ore_signed():
    code, out, _ = run(
        "ore-signed", "--backend", "zm:2", "--a", "a", "--b", "b",
        "--max-support", "2", "--pool-len", "1", "--coeff-bound", "1",
        "--signs=mm", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "signed" and doc["verified"]
    assert doc["signs"] == "--"
    code2, out2, _ = run(
        "ore-signed", "--backend", "zm:2", "--a", "a", "--b", "b",
        "--max-support", "2", "--pool-len", "1", "--coeff-bound", "1",
        "--signs=-+",
    )
    assert code2 in (0, 3)


def test_pool_listing():
    code, out, _ = run("pool", "--backend", "posmon", "--pool-len", "2", "--pool-idx", "1")
    assert code == 0
    assert out.splitlines() == ["1", "x0", "x0 x0", "x0 x1", "x0 x2", "x1", "x1 x1"]


def test_rel2sol():
    code, out, _ = run("rel2sol", "--backend", "zm:2", "--a", "a", "--b", "b", "a^-1 b^-1 a b")
    assert code == 0
    assert "U: (0,0), (0,1)" in out


def test_rel2sol_non_relation_exits_one():
    code, _, err = run("rel2sol", "--backend", "zm:2", "--a", "a", "--b", "b", "a b a^-1 b")
    assert code == 1
    assert "identity" in err


def test_folner_greedy():
    code, out, _ = run("folner", "--backend", "zm:2", "--epsilon", "1/2", "--budget", "80")
    assert code == 0
    assert out.startswith("success: true\n")


def test_folner_failure_exit_three():
    code, out, _ = run(
        "folner", "--backend", "posmon", "--epsilon", "1/10", "--budget", "8"
    )
    assert code == 3
    assert out.startswith("success: false\n")


def test_verify_rejects_a_folner_success_flag_the_ratios_refute(tmp_path):
    _, out, _ = run(
        "folner", "--backend", "zm:2", "--epsilon", "1/2", "--budget", "100",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["epsilon_ok"] is True and doc["success"] is True
    doc["success"] = False
    path = tmp_path / "fo.json"
    path.write_text(json.dumps(doc))
    assert run("verify", str(path))[:2] == (
        1, "verification failed: field 'success' differs from the re-derived certificate\n"
    )


def test_verify_solution_roundtrip(tmp_path):
    _, out, _ = run(
        "ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
        "--max-support", "2", "--pool-len", "1", "--format", "json",
    )
    path = tmp_path / "sol.json"
    path.write_text(out)
    assert run("verify", str(path))[:2] == (0, "verified: ok\n")


def test_verify_detects_tampering(tmp_path):
    _, out, _ = run(
        "ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
        "--max-support", "2", "--pool-len", "1", "--format", "json",
    )
    doc = json.loads(out)
    doc["U"][0] = "(1,1)"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run("verify", str(path))
    assert code == 1
    assert out.startswith("verification failed")


def test_verify_exhausted_and_trace_and_folner(tmp_path):
    cases = [
        (
            "ex.json",
            run(
                "ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
                "--max-support", "2", "--pool-len", "2", "--pool-idx", "2",
                "--format", "json",
            )[1],
        ),
        ("tr.json", run("alt-trace", "x2 x1 x2^-1 x1^-1")[1]),
        (
            "fo.json",
            run(
                "folner", "--backend", "zm:2", "--epsilon", "1/2",
                "--budget", "80", "--format", "json",
            )[1],
        ),
    ]
    for name, payload in cases:
        path = tmp_path / name
        path.write_text(payload)
        assert run("verify", str(path))[:2] == (0, "verified: ok\n"), name


def test_extract_pipeline(tmp_path):
    _, out, _ = run(
        "ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
        "--max-support", "2", "--pool-len", "1", "--format", "json",
    )
    path = tmp_path / "sol.json"
    path.write_text(out)
    code, out, _ = run("extract", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "relations"
    assert doc["relations"] == ["a^-1 b^-1 a b"]
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(out)
    assert run("verify", str(rel_path))[:2] == (0, "verified: ok\n")


def test_every_json_certificate_reverifies(tmp_path):
    sol_json = run(
        "ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
        "--max-support", "2", "--pool-len", "1", "--format", "json",
    )[1]
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(sol_json)
    commands = [
        ("wp", "--backend", "posmon", "x1 x0", "--format", "json"),
        ("canon", "--backend", "f", "x0 x1^-1", "--format", "json"),
        ("alt-check", "--cyclic", "x1 x0", "--format", "json"),
        ("alt-trace", "x2 x1 x0^-1 x3^-1"),
        (
            "ore-search", "--backend", "mb:2", "--a", "a", "--b", "b",
            "--max-support", "2", "--pool-len", "1", "--format", "json",
        ),
        (
            "ore-signed", "--backend", "zm:2", "--a", "a", "--b", "b",
            "--signs=mm", "--coeff-bound", "1", "--max-support", "2",
            "--pool-len", "1", "--format", "json",
        ),
        (
            "ore-signed", "--backend", "posmon", "--a", "x0", "--b", "x1",
            "--signs=mm", "--coeff-bound", "1", "--max-support", "1",
            "--pool-len", "1", "--pool-idx", "1", "--format", "json",
        ),
        ("extract", str(sol_path), "--format", "json"),
        (
            "rel2sol", "--backend", "posmon", "--a", "x0", "--b", "x0",
            "--pool-len", "0", "--pool-idx", "0", "a b^-1", "--format", "json",
        ),
        (
            "folner", "--backend", "posmon", "--epsilon", "1/10",
            "--budget", "6", "--format", "json",
        ),
        ("pool", "--backend", "mb:2", "--pool-len", "2", "--format", "json"),
    ]
    for i, argv in enumerate(commands):
        code, out, err = run(*argv)
        assert code in (0, 3), (argv, err)
        doc = json.loads(out)
        path = tmp_path / f"cert{i}.json"
        path.write_text(out)
        vcode, vout, _ = run("verify", str(path))
        assert (vcode, vout) == (0, "verified: ok\n"), (argv, doc.get("kind"), vout)


def test_missing_certificate_file_is_usage_error():
    code, _, err = run("verify", "/nonexistent/cert.json")
    assert code == 2


def test_unknown_backend_is_usage_error():
    code, _, err = run("wp", "--backend", "zq:9", "a")
    assert code == 2


def test_byte_identical_repeated_runs():
    argvs = [
        ("wp", "--backend", "mb:2", "a b A B"),
        ("alt-trace", "x0 x1 x0^-1 x1^-1"),
        (
            "ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
            "--max-support", "2", "--pool-len", "1", "--format", "json",
        ),
    ]
    for argv in argvs:
        first = run(*argv)
        second = run(*argv)
        assert first == second


def test_jobs_do_not_change_output():
    argv = (
        "ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
        "--max-support", "3", "--pool-len", "3", "--pool-idx", "4",
        "--format", "json",
    )
    assert run(*argv, "--jobs", "1") == run(*argv, "--jobs", "4")


def _signed_zm2_doc():
    code, out, _ = run(
        "ore-signed", "--backend", "zm:2", "--a", "a", "--b", "b",
        "--max-support", "2", "--pool-len", "1", "--coeff-bound", "1",
        "--signs=mm", "--format", "json",
    )
    assert code == 0
    return json.loads(out)


def _verify_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run("verify", str(path))


def test_verify_signed_rejects_support_beyond_n(tmp_path):
    doc = _signed_zm2_doc()
    assert _verify_doc(tmp_path, doc)[:2] == (0, "verified: ok\n")
    doc["bounds"]["n"] = 1
    code, out, _ = _verify_doc(tmp_path, doc)
    assert code == 1
    assert "more than n = 1 support elements" in out


def _doubled(doc):
    doc["u"] = [[2 * c, g] for c, g in doc["u"]]
    doc["v"] = [[2 * c, g] for c, g in doc["v"]]
    doc["lhs"] = doc["lhs"].replace("1*", "2*")
    doc["rhs"] = doc["rhs"].replace("1*", "2*")


def _cancelling_pair(doc):
    doc["bounds"]["n"] = 4
    doc["u"] += [[1, "(1,0)"], [-1, "(1,0)"]]


def _shrunk_pool(doc):
    doc["bounds"]["L"] = 0


def test_verify_signed_rejects_out_of_bounds_terms(tmp_path):
    # Each edit keeps the signed identity true, so only the bound checks
    # can catch it.
    cases = [
        (_doubled, "coefficient outside 1..1"),
        (_cancelling_pair, "repeats a support element"),
        (_shrunk_pool, "outside the pool"),
    ]
    for edit, message in cases:
        doc = _signed_zm2_doc()
        edit(doc)
        code, out, _ = _verify_doc(tmp_path, doc)
        assert code == 1, edit.__name__
        assert out.startswith("verification failed") and message in out


def test_non_object_json_is_rejected_without_traceback(tmp_path):
    path = tmp_path / "doc.json"
    for text in ("[]", "3", '"x"'):
        path.write_text(text)
        code, out, err = run("verify", str(path))
        assert (code, out, err) == (
            1, "verification failed: certificate must be a JSON object\n", "",
        )
        code, out, err = run("extract", str(path))
        assert (code, out) == (2, "")
        assert err == "error: certificate must be a JSON object\n"


def test_rel2sol_outside_the_pool_is_not_embeddable():
    # The walk of [a^-1, b^-1] gives U = {(0,0), (0,1)}, which L = 0 does
    # not hold; a solution certificate would state a pool it leaves.
    argv = ("rel2sol", "--backend", "zm:2", "--a", "a", "--b", "b", "--pool-len", "0",
            "a^-1 b^-1 a b")
    assert run(*argv) == (3, "not-embeddable\n", "")
    code, out, _ = run(*argv, "--format", "json")
    doc = json.loads(out)
    assert (code, doc["kind"]) == (3, "rel2sol-failure")
    assert doc["reason"] == "solution leaves the pool of L = 0, K = 2"


def test_verify_rejects_a_solution_outside_its_pool(tmp_path):
    _, out, _ = run("ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
                    "--max-support", "2", "--pool-len", "1", "--format", "json")
    inst, sol = certs.solution_inputs(json.loads(out))
    # A right translate still solves (1+a)U = (1+b)V, but leaves the pool.
    backend = inst.backend
    shift = backend.from_text("a^3 b^3")
    U, V = ([backend.multiply(x, shift) for x in side] for side in (sol.U, sol.V))
    moved = verify_solution(backend, inst.a, inst.b, U, V)
    for derive in (certs.solution_certificate, certs.relations_certificate):
        code, out, _ = _verify_doc(tmp_path, derive(inst, moved))
        assert (code, out) == (
            1, "verification failed: U or V has an element outside the pool\n",
        ), derive.__name__


def test_verify_rejects_a_flow_that_is_no_group_element(tmp_path):
    code, out, _ = run("ore-search", "--backend", "mb:2", "--a", "a", "--b", "b",
                       "--max-support", "2", "--pool-len", "1", "--format", "json")
    doc = json.loads(out)
    assert (code, doc["kind"]) == (3, "exhausted")
    assert _verify_doc(tmp_path, doc)[:2] == (0, "verified: ok\n")
    # one unit of flow out of the origin that never arrives anywhere
    doc["a"] = "t=(0,0); flow={((0,0),a):1}"
    code, out, _ = _verify_doc(tmp_path, doc)
    assert code == 1
    assert "boundary condition" in out


ZM2_AB = ("--backend", "zm:2", "--a", "a", "--b", "b")


def test_negative_max_support_is_a_usage_error():
    assert run("ore-search", *ZM2_AB, "--max-support", "-2") == (
        2, "", "error: max support n must be nonnegative\n",
    )


def test_signed_negative_max_support_is_a_usage_error(tmp_path):
    assert run("ore-signed", *ZM2_AB, "--max-support", "-1") == (
        2, "", "error: max support n must be nonnegative\n",
    )
    doc = _signed_zm2_doc()
    doc["bounds"]["n"] = -1
    assert _verify_doc(tmp_path, doc)[:2] == (
        1, "verification failed: malformed certificate: max support n must be nonnegative\n",
    )


def test_coefficient_bound_below_one_is_a_usage_error(tmp_path):
    assert run("ore-signed", *ZM2_AB, "--coeff-bound", "-1", "--format", "json") == (
        2, "", "error: coefficient bound c must be at least 1\n",
    )
    # an exhaustion with c = 0 would hold vacuously: no coefficient is allowed
    code, out, _ = run("ore-signed", *ZM2_AB, "--max-support", "1", "--pool-len", "1",
                       "--format", "json")
    doc = json.loads(out)
    assert (code, doc["kind"]) == (3, "exhausted")
    doc["bounds"]["c"] = 0
    assert _verify_doc(tmp_path, doc)[:2] == (
        1, "verification failed: malformed certificate: coefficient bound c must be at least 1\n",
    )


def test_verify_reads_mode_signs_and_c_as_one_ring(tmp_path):
    # c alone picks the ring, so an edited c must contradict mode or signs
    cases = [
        (("ore-search", *ZM2_AB, "--max-support", "2", "--pool-len", "1"), 7),
        (("ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
          "--max-support", "2", "--pool-len", "2"), 3),
        (("ore-signed", *ZM2_AB, "--max-support", "2", "--pool-len", "1", "--signs=mm"), None),
        (("ore-signed", *ZM2_AB, "--max-support", "1", "--pool-len", "1"), None),
    ]
    for argv, c in cases:
        doc = json.loads(run(*argv, "--format", "json")[1])
        assert _verify_doc(tmp_path, doc)[:2] == (0, "verified: ok\n")
        doc["bounds"]["c"] = c
        code, out, _ = _verify_doc(tmp_path, doc)
        assert code == 1 and out.startswith("verification failed: "), (argv, out)


def test_verify_takes_no_format(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_signed_zm2_doc()))
    assert run("verify", "--format", "json", str(path))[0] == 2


def test_folner_without_generators_is_a_usage_error(tmp_path):
    assert run("folner", "--backend", "posmon", "--epsilon", "1/2", "--budget", "5",
               "--pool-idx", "-1") == (2, "", "error: at least one generator is needed\n")
    code, out, _ = run("folner", "--backend", "posmon", "--epsilon", "1/2", "--budget", "5",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 3
    doc["generators"], doc["stats"] = [], []
    assert _verify_doc(tmp_path, doc)[:2] == (
        1, "verification failed: malformed certificate: at least one generator is needed\n",
    )


def test_backend_without_parameters_rejects_an_argument():
    for selector in ("f:3", "posmon:junk"):
        code, out, err = run("wp", "--backend", selector, "x0")
        assert code == 2
        assert out == ""
        assert selector in err


def _dfs_calls(monkeypatch):
    """Record the outcome of every unsigned DFS that ``solve`` runs."""
    outcomes = []
    search = ore.search_common_multiple

    def spy(inst):
        outcomes.append(search(inst))
        return outcomes[-1]

    monkeypatch.setattr(ore, "search_common_multiple", spy)
    return outcomes


def test_relation_check_does_not_swallow_the_dfs(tmp_path, monkeypatch):
    # (1+x0^2) and (1+x1) have a mass-6 solution in posmon, from a trivial
    # alternating word of length 12: at n = 5 the relation check proves the
    # exhaustion, at n = 6 it finds that word and the DFS finds the solution.
    dfs = _dfs_calls(monkeypatch)
    code, out, _ = run(
        "ore-search", "--backend", "posmon", "--a", "x0 x0", "--b", "x1",
        "--max-support", "5", "--pool-len", "4", "--pool-idx", "5", "--format", "json",
    )
    assert code == 3 and dfs == []
    doc = json.loads(out)
    doc["bounds"]["n"] = 6
    path = tmp_path / "n6.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run("verify", str(path))
    assert (code, out) == (1, "verification failed: a solution exists within the stated bounds\n")
    assert [type(outcome).__name__ for outcome in dfs] == ["Solution"]


def test_relation_check_stays_within_its_budget(monkeypatch):
    # All 2^42 or so multiplies of lengths up to 80 would never finish; the
    # pool of 7 elements allows 14, so the check stops undecided after level
    # 2 (8 multiplies) and the DFS decides.
    backend = make_backend("f")
    check = ore.alternating_relation_length(
        backend, backend.from_text("x0"), backend.from_text("x1"), 40, 2 * 7)
    assert (check.length, check.decided, check.multiplies) == (None, False, 8)
    dfs = _dfs_calls(monkeypatch)
    code, out, _ = run(
        "ore-search", "--backend", "f", "--a", "x0", "--b", "x1",
        "--max-support", "40", "--pool-len", "1",
    )
    assert (code, out) == (3, "exhausted\n")
    assert len(dfs) == 1 and dfs[0].pool_size == 7 and dfs[0].nodes > 0


def test_named_rank_above_23_is_a_usage_error(tmp_path):
    # a..w are the named generators; a rank-24 backend would have lost x
    for selector in ("zm:24", "mb:24"):
        for argv in (["pool", "--backend", selector], ["wp", "--backend", selector, "a"]):
            assert run(*argv) == (2, "", "error: at most 23 named generators, got 24\n")
        path = tmp_path / "pool.json"
        _, out, _ = run("pool", "--backend", selector.replace("24", "23"), "--pool-len", "0",
                        "--format", "json")
        path.write_text(out.replace(":23", ":24"))
        assert run("verify", str(path)) == (
            1, "verification failed: malformed certificate: at most 23 named generators, got 24\n",
            "")


def test_a_non_ascii_digit_is_a_usage_error(tmp_path):
    assert run("wp", "--backend", "f", "x\u00b2") == (
        2, "", "error: generator 'x' not in alphabet (at position 0)\n")
    assert run("wp", "--backend", "f", "x0^\u00b2") == (
        2, "", "error: expected digits after '^' (at position 3)\n")
    # x followed by an Arabic-Indic three once read as x3
    _, out, _ = run("wp", "--backend", "f", "x3", "--format", "json")
    path = tmp_path / "wp.json"
    path.write_text(out.replace('"x3"', '"x\\u0663"'))
    assert json.loads(path.read_text())["word"] == "x\u0663"
    assert run("verify", str(path)) == (
        1, "verification failed: generator 'x' not in alphabet (at position 0)\n", "")


def test_oversized_power_is_a_usage_error():
    for word in ("a^99999999999999999999999", "b a^-4611686018427387904"):
        code, out, err = run("wp", "--backend", "zm:2", word)
        assert (code, out) == (2, "")
        assert err.startswith("error: power of a too large to expand (at position ")
        assert err.count("\n") == 1
