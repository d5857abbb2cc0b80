"""Command-line behavior: exit codes, formats, file targets, and the
published report schema."""

import functools
import hashlib
import itertools
import json
import operator
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from closedcat import cli, instances
from closedcat.interchange import REPORT_SCHEMA

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "closedcat.cli", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=timeout,
    )


def test_check_positive_instance_exits_zero():
    out = run_cli("check", "--suite", "all", "instance:heyting2")
    assert out.returncode == 0, out.stderr
    assert "0 failed" in out.stdout


def test_check_negative_file_exits_one_and_localizes():
    out = run_cli("check", "file:fixtures/broken-j.json")
    assert out.returncode == 1
    assert "cc/CC2" in out.stdout
    assert "[FAIL]" in out.stdout


def test_check_broken_compose_file():
    out = run_cli("check", "file:fixtures/broken-compose.json")
    assert out.returncode == 1
    assert "category/assoc" in out.stdout


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = run_cli("check", f"file:{bad}")
    assert out.returncode == 2
    assert "error" in out.stderr.lower()
    out2 = run_cli("check", "file:/does/not/exist.json")
    assert out2.returncode == 2


def _edited_fixture(tmp_path, fixture, edit):
    doc = json.loads((ROOT / "fixtures" / fixture).read_text())
    edit(doc)
    target = tmp_path / fixture
    target.write_text(json.dumps(doc))
    return target


def _assert_one_error_line(out, entry):
    assert out.returncode == 2, out.stdout + out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    assert f'"{entry}"' in lines[0]


@pytest.mark.parametrize(
    "fixture,entry",
    [("broken-compose.json", "m0;m0"), ("z2mc-badcompose.json", "m0,m0,m0|m6")],
)
def test_missing_composite_exits_two_naming_the_entry(tmp_path, fixture, entry):
    target = _edited_fixture(tmp_path, fixture, lambda doc: doc["compose"].pop(entry))
    _assert_one_error_line(run_cli("check", f"file:{target}"), entry)


def test_wrong_typed_table_value_exits_two_naming_the_key(tmp_path):
    target = _edited_fixture(
        tmp_path, "broken-compose.json", lambda doc: doc["hom"].update({"o0,o1": 5})
    )
    _assert_one_error_line(run_cli("check", f"file:{target}"), "o0,o1")


@pytest.mark.parametrize(
    "table,entry",
    [
        ("L", "o0,o0,o0"),
        ("i", "o0"),
        ("i_inv", "o0"),
        ("j", "o0"),
        ("hom2.mor", "m0,m0"),
    ],
)
def test_missing_closed_entry_exits_two_naming_the_entry(tmp_path, table, entry):
    def edit(doc):
        *outer, last = table.split(".")
        for part in outer:
            doc = doc[part]
        doc[last].pop(entry)

    out = run_cli("check", f"file:{_edited_fixture(tmp_path, 'broken-j.json', edit)}")
    _assert_one_error_line(out, entry)
    assert f"{table} table has no entry" in out.stderr


@pytest.mark.parametrize(
    "fixture,table,key,bad_key",
    [
        ("broken-compose.json", "hom", "o0,o0", "o0"),
        ("broken-compose.json", "compose", "m0;m0", "m0;m0;m0"),
        ("broken-j.json", "L", "o0,o0,o0", "o0,o0"),
        ("z2mc-badcompose.json", "compose", "m0,m0,m0|m6", "m0,m0,m0"),
    ],
)
def test_key_with_wrong_number_of_parts_exits_two_naming_it(
    tmp_path, fixture, table, key, bad_key
):
    def edit(doc):
        doc[table][bad_key] = doc[table].pop(key)

    out = run_cli("check", f"file:{_edited_fixture(tmp_path, fixture, edit)}")
    _assert_one_error_line(out, bad_key)
    assert f'{table} key "{bad_key}"' in out.stderr


@pytest.mark.parametrize("fixture", ["broken-compose.json", "z2mc-badcompose.json"])
def test_undeclared_identity_exits_two_naming_the_entry(tmp_path, fixture):
    target = _edited_fixture(
        tmp_path, fixture, lambda doc: doc["id"].update({"o0": "m9"})
    )
    out = run_cli("check", f"file:{target}")
    _assert_one_error_line(out, "o0")
    assert '"m9"' in out.stderr


@pytest.mark.parametrize(
    "fixture,table,entry",
    [
        ("broken-compose.json", "compose", "m0;m0"),
        ("z2mc-badcompose.json", "compose", "m0,m0,m0|m6"),
        ("broken-j.json", "L", "o0,o0,o0"),
        ("broken-j.json", "hom2.mor", "m0,m0"),
        ("broken-j.json", "i", "o0"),
        ("broken-j.json", "i_inv", "o0"),
        ("broken-j.json", "j", "o0"),
    ],
)
def test_undeclared_value_exits_two_naming_its_entry(tmp_path, fixture, table, entry):
    def edit(doc):
        *outer, last = table.split(".")
        for part in outer:
            doc = doc[part]
        doc[last][entry] = "m99"

    out = run_cli("check", f"file:{_edited_fixture(tmp_path, fixture, edit)}")
    _assert_one_error_line(out, entry)
    assert f'{table} entry "{entry}" names undeclared morphism "m99"' in out.stderr


@pytest.mark.parametrize("fixture", ["broken-compose.json", "z2mc-badcompose.json"])
def test_identity_table_missing_an_object_exits_two_naming_it(tmp_path, fixture):
    target = _edited_fixture(tmp_path, fixture, lambda doc: doc["id"].pop("o0"))
    out = run_cli("check", f"file:{target}")
    _assert_one_error_line(out, "o0")
    assert 'id table has no entry "o0"' in out.stderr


def test_explicit_arity_cap_overrides_the_instance_cap():
    # freemon3 declares cap 1; an explicit --arity-cap 3 must still apply
    out = run_cli("check", "--suite", "axioms", "instance:freemon3")
    assert out.returncode == 0, out.stdout
    out3 = run_cli(
        "check", "--suite", "axioms", "--arity-cap", "3", "instance:freemon3"
    )
    assert out3.returncode == 1
    assert "freemon3/mc/error" in out3.stdout


def test_unknown_instance_exits_two(tmp_path):
    # by name on the command line, and by a file's registry reference
    target = _edited_fixture(
        tmp_path, "finset.json", lambda doc: doc.update(ref="nope")
    )
    for spec in ("instance:nope", f"file:{target}"):
        out = run_cli("check", spec)
        assert out.returncode == 2, out.stdout + out.stderr
        assert out.stderr == "error: unknown instance 'nope'; see `instance list`\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (lambda d: ("check", f"file:{d}"), "Is a directory"),
        (
            lambda d: (
                "check", "file:fixtures/broken-j.json", f"file:{d / 'bytes.json'}"
            ),
            "bytes.json: 'utf-8' codec can't decode byte 0xff",
        ),
        (lambda d: ("instance", "list", "--out", str(d)), "Is a directory"),
    ],
    ids=["read-a-directory", "read-non-utf8", "write-to-a-directory"],
)
def test_unreadable_or_unwritable_path_exits_two_with_one_line(tmp_path, argv, message):
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe\x00")
    out = run_cli(*argv(tmp_path))
    assert out.returncode == 2, out.stdout + out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    assert message in lines[0]


def test_json_format_validates_against_schema():
    out = run_cli("check", "--format", "json", "instance:terminal")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_instance_list_names_everything():
    out = run_cli("instance", "list")
    assert out.returncode == 0
    for name in ["terminal", "heyting2", "finset", "z2", "broken-j"]:
        assert name in out.stdout


def test_instance_dump_roundtrips_through_check(tmp_path):
    target = tmp_path / "z2.json"
    out = run_cli("instance", "dump", "z2", "--out", str(target))
    assert out.returncode == 0
    out2 = run_cli("check", "--suite", "axioms", f"file:{target}")
    assert out2.returncode == 0, out2.stdout


@pytest.mark.parametrize("name", ["z2", "heyting2", "finset"])
def test_instance_dump_accepts_the_target_form(name, capsys):
    # finset is dumped by registry reference, which names it without the
    # prefix either way
    assert cli.main(["instance", "dump", name]) == 0
    plain = capsys.readouterr()
    assert cli.main(["instance", "dump", f"instance:{name}"]) == 0
    assert capsys.readouterr() == plain


def test_identity_of_the_wrong_type_fails_its_endpoints_only(tmp_path, capsys):
    # The identity of a is f : a -> b.  It is composed with nothing, so the
    # check reports it rather than raising from the compose table.
    doc = {
        "kind": "category",
        "name": "badid",
        "objects": ["a", "b"],
        "hom": {"a,a": ["1a"], "a,b": ["f"], "b,b": ["1b"]},
        "compose": {"1a;1a": "1a", "1a;f": "f", "f;1b": "f", "1b;1b": "1b"},
        "id": {"a": "f", "b": "1b"},
    }
    target = tmp_path / "badid.json"
    target.write_text(json.dumps(doc))
    assert cli.main(["check", f"file:{target}"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [ln for ln in out.splitlines() if ln.startswith("[")] == [
        f"[PASS] {target}/category/endpoints (dom/cod)",
        f"[FAIL] {target}/category/identity (1;f=f=f;1) @ endpoints a",
        f"[PASS] {target}/category/assoc ((f;g);h=f;(g;h))",
    ]


def test_closed_category_with_a_wrong_typed_identity_fails_without_raising(
    tmp_path, capsys
):
    # heyting2's identity of o0 set to m1 : o0 -> o1.  The closed-category
    # laws compose it through und(1,-); that composite is an error line of
    # the suites, not a traceback.
    assert cli.main(["instance", "dump", "heyting2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["id"]["o0"] = "m1"
    target = tmp_path / "heyting2.json"
    target.write_text(json.dumps(doc))
    assert cli.main(["check", "--suite", "all", f"file:{target}"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    fails = [ln for ln in out.splitlines() if ln.startswith("[FAIL]")]
    assert fails == [
        f"[FAIL] {target}/category/identity (1;f=f=f;1) @ endpoints o0",
        f"[FAIL] {target}/cc/error (NotComposable) @ cannot compose m2 with m1",
        f"[FAIL] {target}/derived/error (NotComposable) @ cannot compose m2 with m1",
    ]


def _dump(name, capsys):
    assert cli.main(["instance", "dump", name]) == 0
    return json.loads(capsys.readouterr().out)


def _one_entry_edits(doc, fields, values):
    """Each entry of each of ``fields``, a dotted path to a table or to
    one entry, set to each other value that ``values(field)`` lists, one
    edit at a time, with its label."""
    for field in fields:
        path = field.split(".")
        table = functools.reduce(operator.getitem, path, doc)
        if not isinstance(table, dict):
            path, table = path[:-1], {path[-1]: table}
        for key, v in itertools.product(sorted(table), values(field)):
            if table[key] != v:
                edited = json.loads(json.dumps(doc))
                functools.reduce(operator.getitem, path, edited)[key] = v
                yield f"{'.'.join(path)}[{key}]={v}", edited


def _exits_with_a_report(argv, capsys):
    """The exit code and output of one in-process call, which returns 0,
    1 or 2, raises nothing, and on 2 prints one error line."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    return code, out, err


def test_every_identity_edit_of_a_dump_exits_with_a_report(tmp_path, capsys):
    # Each object's identity in each tabular category and closed-category
    # dump set to each declared morphism in turn, the unchanged one
    # included: every edit is checked in process and raises nothing.
    edits = 0
    for name in sorted(instances.REGISTRY):
        if instances.get(name).kind not in ("category", "closed"):
            continue
        doc = _dump(name, capsys)
        if "hom" not in doc:  # a lazy structure, dumped by reference
            continue
        morphisms = sorted({m for ms in doc["hom"].values() for m in ms})
        for x, m in itertools.product(sorted(doc["id"]), morphisms):
            edited = json.loads(json.dumps(doc))
            edited["id"][x] = m
            target = tmp_path / f"{name}-{x}-{m}.json"
            target.write_text(json.dumps(edited))
            argv = ["check", "--suite", "all", f"file:{target}"]
            code, out, _ = _exits_with_a_report(argv, capsys)
            assert code == 2 or out.startswith("== check =="), (name, x, m)
            edits += 1
    assert edits == 16

    # Every one-entry edit of the data of two closed-category dumps, and
    # of the identity, evaluation and unit of the z2 multicategory dump,
    # through each verb that reads such a file, at FILE.
    out = str(tmp_path / "out.json")
    closed_verbs = (
        ("check", "--suite", "all", "FILE"),
        ("represent", "FILE", "--out", out),
        ("construct", "ek", "FILE", "--out", out),
    )
    multicat_verbs = (
        ("construct", "underlying", "FILE", "--out", out),
        ("roundtrip", "FILE", "functor:identity"),
    )
    closed_fields = ("id", "i", "i_inv", "j", "L", "hom2.obj", "hom2.mor")
    errors, counts = {}, {}
    for name in ("heyting2", "z2closed", "z2"):
        doc = _dump(name, capsys)
        morphisms = sorted({m for ms in doc["hom"].values() for m in ms})
        if name == "z2":
            fields, verbs = ("id", "ev", "unit.u"), multicat_verbs
        else:
            fields, verbs = closed_fields, closed_verbs
        edits = _one_entry_edits(
            doc, fields, lambda f: doc["objects"] if f == "hom2.obj" else morphisms
        )
        counts[name] = 0
        for label, edited in edits:
            target = tmp_path / "edited.json"
            target.write_text(json.dumps(edited))
            for verb in verbs:
                argv = [f"file:{target}" if a == "FILE" else a for a in verb]
                _, _, err = _exits_with_a_report(argv, capsys)
                errors[(name, label, verb[0])] = err
            counts[name] += 1
    assert counts == {"heyting2": 54, "z2closed": 9, "z2": 27}
    # a composite of families whose profile does not meet, and a currying
    # off a nullary morphism, exit 2 where they raised a ValueError
    assert errors[("heyting2", "i[o0]=m1", "represent")] == (
        "error: NotComposable: rep(ek(heyting2)): "
        "cannot compose rep[m2]:o0->o1 into rep[m2]:o0->o0\n"
    )
    for verb in ("construct", "roundtrip"):
        assert errors[("z2", "id[o0]=m0", verb)] == (
            "error: NotComposable: z2: cannot curry 1 inputs off m0, of arity 0\n"
        )


def test_roundtrip_verb():
    out = run_cli("roundtrip", "instance:z2", "functor:inversion")
    assert out.returncode == 0
    assert "lift(U(F)) = F" in out.stdout
    assert "U(lift(Phi)) = Phi" in out.stdout


def test_represent_verb(tmp_path):
    target = tmp_path / "mcv.json"
    out = run_cli("represent", "instance:heyting2", "--out", str(target))
    assert out.returncode == 0, out.stdout
    doc = json.loads(target.read_text())
    assert doc["kind"] == "multicategory"
    assert "unit" in doc
    out2 = run_cli("check", "--suite", "axioms", f"file:{target}")
    assert out2.returncode == 0, out2.stdout


def test_represent_without_out_writes_the_file_alone_to_stdout(tmp_path, capsys):
    # the report goes to stderr, so the captured stdout reads back
    assert cli.main(["represent", "instance:terminal"]) == 0
    out, err = capsys.readouterr()
    assert "== represent terminal ==" in err
    target = tmp_path / "rep.json"
    target.write_text(out)
    assert cli.main(["check", f"file:{target}"]) == 0
    assert "0 failed" in capsys.readouterr().out


def test_construct_underlying(tmp_path):
    target = tmp_path / "u.json"
    out = run_cli("construct", "underlying", "instance:z2", "--out", str(target))
    assert out.returncode == 0, out.stderr
    out2 = run_cli("check", f"file:{target}")
    assert out2.returncode == 0, out2.stdout


def test_construct_ek(tmp_path):
    target = tmp_path / "w.json"
    out = run_cli("construct", "ek", "instance:heyting2", "--out", str(target))
    assert out.returncode == 0, out.stderr
    out2 = run_cli("check", f"file:{target}")
    assert out2.returncode == 0, out2.stdout


def test_construct_refuses_an_unknown_construction_as_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "bogus", "instance:z2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: closedcat construct")
    assert "argument what: invalid choice: 'bogus'" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("construct", "ek", "instance:broken-hom2"), "NotBijective: broken-hom2"),
        (("represent", "instance:broken-hom2"), "NotBijective: broken-hom2"),
        (
            ("construct", "underlying", "instance:truncadd-badunit"),
            "NotBijective: truncadd-badunit: unit contraction",
        ),
    ],
)
def test_kernel_error_outside_a_check_exits_two_with_one_line(tmp_path, argv, message):
    out = run_cli(*argv, "--out", str(tmp_path / "out.json"))
    assert out.returncode == 2, out.stdout + out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    assert message in lines[0]


@pytest.mark.parametrize(
    "argv,name",
    [
        (("represent", "instance:heyting2"), "rep(ek(heyting2))"),
        (("instance", "dump", "z2"), "z2"),
    ],
)
def test_witness_past_the_written_arity_exits_two_naming_the_entry(
    tmp_path, argv, name
):
    # at --arity-cap 0 the file stops at arity 1, where ev, of arity 2, is
    # not declared: a file that named it anyway fails its own check
    target = tmp_path / "out.json"
    out = run_cli(*argv, "--arity-cap", "0", "--out", str(target))
    _assert_one_error_line(out, "o0;o0")
    assert out.stderr == (
        f'error: {name}: ev entry "o0;o0" names a morphism of arity 2 that '
        "the file, written to arity 1, does not declare\n"
    )
    assert out.stdout == "" and not target.exists()


@pytest.mark.parametrize(
    "fixture,edit,message",
    [
        (
            "broken-j.json",
            lambda doc: doc.update(unit="o9"),
            'unit names undeclared object "o9"',
        ),
        (
            "broken-j.json",
            lambda doc: doc["hom2"]["obj"].update({"o0,o0": "o9"}),
            'hom2.obj entry "o0,o0" names undeclared object "o9"',
        ),
        (
            "broken-compose.json",
            lambda doc: doc["hom"].update({"o9,o0": doc["hom"].pop("o0,o0")}),
            'hom key "o9,o0" names undeclared object "o9"',
        ),
        (
            "broken-compose.json",
            lambda doc: doc["hom"].update({"o0,o9": []}),
            'hom key "o0,o9" names undeclared object "o9"',
        ),
        (
            "z2mc-badcompose.json",
            lambda doc: doc["hom"].update({"o0,o9;o0": []}),
            'hom key "o0,o9;o0" names undeclared object "o9"',
        ),
        (
            "broken-compose.json",
            lambda doc: doc["compose"].update({"zz;m0": "m0"}),
            'compose key "zz;m0" names undeclared morphism "zz"',
        ),
        (
            "broken-j.json",
            lambda doc: doc["compose"].update({"m7;m0": "m0"}),
            'compose key "m7;m0" names undeclared morphism "m7"',
        ),
        (
            "broken-j.json",
            lambda doc: doc["hom2"]["mor"].update({"m9,m0": "m0"}),
            'hom2.mor key "m9,m0" names undeclared morphism "m9"',
        ),
        (
            "broken-j.json",
            lambda doc: doc["L"].update({"o0,o0,o9": "m0"}),
            'L key "o0,o0,o9" names undeclared object "o9"',
        ),
        (
            "broken-j.json",
            lambda doc: doc["hom2"]["obj"].update({"o9,o0": "o0"}),
            'hom2.obj key "o9,o0" names undeclared object "o9"',
        ),
        (
            "broken-j.json",
            lambda doc: doc["j"].update({"o9": "m0"}),
            'j key "o9" names undeclared object "o9"',
        ),
    ],
)
def test_undeclared_object_exits_two_naming_the_field(tmp_path, fixture, edit, message):
    out = run_cli("check", f"file:{_edited_fixture(tmp_path, fixture, edit)}")
    assert out.returncode == 2, out.stdout + out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    assert message in lines[0]


@pytest.fixture(scope="module")
def z2_dump():
    out = run_cli("instance", "dump", "z2")
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize(
    "edit,message",
    [
        (
            lambda doc: doc["unit"].update(unit="o9"),
            'unit entry "unit" names undeclared object "o9"',
        ),
        (
            lambda doc: doc["hom_obj"].update({"o0;o0": "o9"}),
            'hom_obj entry "o0;o0" names undeclared object "o9"',
        ),
        (
            lambda doc: doc["ev"].update({"o0;o0": "m99"}),
            'ev entry "o0;o0" names undeclared morphism "m99"',
        ),
        (
            lambda doc: doc["unit"].update(u="m99"),
            'unit entry "u" names undeclared morphism "m99"',
        ),
        (
            lambda doc: doc["ev"].update({"o9;o0": "m4"}),
            'ev key "o9;o0" names undeclared object "o9"',
        ),
    ],
)
def test_undeclared_name_in_witness_or_unit_exits_two_naming_it(
    tmp_path, z2_dump, edit, message
):
    _assert_edited_z2_exits_two(tmp_path, z2_dump, edit, message)


def _assert_edited_z2_exits_two(tmp_path, z2_dump, edit, message):
    doc = json.loads(z2_dump)
    edit(doc)
    target = tmp_path / "z2.json"
    target.write_text(json.dumps(doc))
    out = run_cli("check", f"file:{target}")
    assert out.returncode == 2, out.stdout + out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    assert message in lines[0]


@pytest.mark.parametrize(
    "edit,message",
    [
        (
            lambda doc: doc["hom_obj"].pop("o0;o0"),
            'z2: hom_obj table has no entry "o0;o0"',
        ),
        (lambda doc: doc["ev"].pop("o0;o0"), 'z2: ev table has no entry "o0;o0"'),
        (lambda doc: doc.pop("ev"), 'z2: ev table has no entry "o0;o0"'),
        (
            lambda doc: doc["ev"].update({"o0;o0": "m0"}),
            'z2: ev entry "o0;o0" names "m0" of signature ";o0", needs "o0,o0;o0"',
        ),
        (
            lambda doc: doc["unit"].update(u="m4"),
            'z2: unit entry "u" names "m4" of signature "o0,o0;o0", needs ";o0"',
        ),
    ],
)
def test_missing_or_mistyped_witness_entry_exits_two_naming_it(
    tmp_path, z2_dump, edit, message
):
    _assert_edited_z2_exits_two(tmp_path, z2_dump, edit, message)


@pytest.mark.parametrize(
    "edit,message",
    [
        (
            # a second spelling of "m0,m0,m0,m0|m8"
            lambda doc: doc["compose"].update({"m0,,m0,m0,m0|m8": "m8"}),
            'compose key "m0,,m0,m0,m0|m8" has an empty name',
        ),
        (
            lambda doc: doc["compose"].update({",m0,m0,m0,m0|m8": "m8"}),
            'compose key ",m0,m0,m0,m0|m8" has an empty name',
        ),
        (
            lambda doc: doc["hom"].update(
                {"o0,,o0,o0,o0;o0": doc["hom"].pop("o0,o0,o0,o0;o0")}
            ),
            'hom key "o0,,o0,o0,o0;o0" has an empty name',
        ),
        (
            lambda doc: doc["hom"].update({"o0,;o0": doc["hom"].pop("o0,o0;o0")}),
            'hom key "o0,;o0" has an empty name',
        ),
    ],
)
def test_empty_name_in_multicategory_key_exits_two_naming_it(
    tmp_path, z2_dump, edit, message
):
    _assert_edited_z2_exits_two(tmp_path, z2_dump, edit, message)


def _renamed(old: str, new: str):
    """An edit that renames ``old`` to ``new`` throughout a file, keys
    included."""
    pattern = re.compile(rf"\b{re.escape(old)}\b")

    def edit(doc):
        text = pattern.sub(lambda _: new, json.dumps(doc))
        doc.clear()
        doc.update(json.loads(text))

    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        (_renamed("m1", "m1,x"), 'hom entry ";o0" lists "m1,x", which contains ","'),
        (
            _renamed("m5", "m5|x"),
            'hom entry "o0,o0;o0" lists "m5|x", which contains "|"',
        ),
        (_renamed("m3", "m3;x"), 'hom entry "o0;o0" lists "m3;x", which contains ";"'),
        # the hom keys that hold it are read first
        (_renamed("o0", "o0;x"), 'hom key ";o0;x" must have 2 parts separated by ";"'),
        (_renamed("o0", "o,0"), 'objects lists "o,0", which contains ","'),
        (
            lambda doc: doc["hom"]["o0;o0"].append(""),
            'hom entry "o0;o0" lists an empty name',
        ),
    ],
)
def test_separator_in_multicategory_name_exits_two_naming_it(
    tmp_path, z2_dump, edit, message
):
    # A name holding a key separator would give two composites one key.
    _assert_edited_z2_exits_two(tmp_path, z2_dump, edit, message)


def _without_witness(doc):
    del doc["hom_obj"], doc["ev"]


def test_unit_block_without_witness_is_checked_then_dropped(tmp_path, z2_dump):
    # no check reads a unit without a witness: only the mc suite runs
    doc = json.loads(z2_dump)
    _without_witness(doc)
    target = tmp_path / "z2.json"
    target.write_text(json.dumps(doc))
    out = run_cli("check", f"file:{target}")
    assert out.returncode == 0, out.stdout + out.stderr
    checks = [line for line in out.stdout.splitlines() if line.startswith("[")]
    assert checks and all(f"{target}/mc/" in line for line in checks), out.stdout

    # ... yet a bad u is still refused, naming the entry
    def bad_u(doc):
        _without_witness(doc)
        doc["unit"]["u"] = "m4"

    message = 'z2: unit entry "u" names "m4" of signature "o0,o0;o0", needs ";o0"'
    _assert_edited_z2_exits_two(tmp_path, z2_dump, bad_u, message)


def test_witness_tables_are_read_before_the_unit(tmp_path, z2_dump):
    def edit(doc):
        doc["ev"]["o0;o0"] = "m0"
        doc["unit"]["u"] = "m4"

    _assert_edited_z2_exits_two(
        tmp_path, z2_dump, edit, 'z2: ev entry "o0;o0" names "m0"'
    )


@pytest.mark.parametrize(
    "target,functor",
    [
        ("file:z2.json", "shift"),
        ("instance:heyting2mc", "shift"),
        ("instance:heyting2mc", "inversion"),
    ],
)
def test_registry_functor_on_another_target_exits_two_naming_both(
    tmp_path, z2_dump, target, functor
):
    # a file is another target even when it is the dump of z2
    (tmp_path / "z2.json").write_text(z2_dump)
    target = target.replace("file:", f"file:{tmp_path}/")
    out = run_cli("roundtrip", target, f"functor:{functor}")
    assert out.returncode == 2, out.stdout + out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    assert f"functor:{functor}" in lines[0] and target in lines[0], lines[0]


def test_identity_functor_acts_on_a_file(tmp_path, z2_dump):
    (tmp_path / "z2.json").write_text(z2_dump)
    out = run_cli("roundtrip", f"file:{tmp_path}/z2.json", "functor:identity")
    assert out.returncode == 0, out.stdout + out.stderr


def test_budget_bounds_multicategory_hom_sets():
    # every hom-set of z2 within its cap has at most 2 members
    out = run_cli("check", "--budget", "1", "instance:z2")
    assert out.returncode == 1, out.stderr
    assert "[FAIL] z2/mc/error (BudgetExceeded) @ z2: hom(;g) over budget" in out.stdout
    # the unit suite is the first to enumerate a unary hom-set
    unary = "[FAIL] z2/unit/error (BudgetExceeded) @ z2: hom(g;g) over budget"
    assert unary in out.stdout.splitlines(), out.stdout
    out2 = run_cli("check", "--budget", "2", "instance:z2")
    assert out2.returncode == 0, out2.stdout


def _budget_fails(name, suites, locus):
    return [
        f"[FAIL] {name}/{suite}/error (BudgetExceeded) @ {name}: {locus} over budget"
        for suite in suites
    ]


@pytest.mark.parametrize(
    "argv,code,fails",
    [
        (
            ["check", "instance:z2closed"],
            1,
            _budget_fails("z2closed", ["category", "cc", "derived"], "hom(g,g)"),
        ),
        (["check", "instance:z2"], 1, _budget_fails("z2", ["mc"], "hom(;g)")),
        (["instance", "dump", "z2"], 2, []),
        (["instance", "dump", "z2closed"], 2, []),
        (["construct", "ek", "instance:z2closed"], 2, []),
        (["construct", "underlying", "instance:z2"], 2, []),
        (["represent", "instance:z2closed"], 2, []),
        (["roundtrip", "instance:z2", "functor:shift"], 2, []),
    ],
)
def test_budget_bounds_every_verb(argv, code, fails, capsys):
    """Each target has a two-element hom-set, so --budget 1 stops every
    verb: a check with FAIL lines, any other verb with one error line."""
    assert cli.main([*argv, "--budget", "1"]) == code
    out, err = capsys.readouterr()
    if fails:
        lines = out.splitlines()
        assert all(line in lines for line in fails), out
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: BudgetExceeded: "), err


def test_budget_at_the_largest_hom_set_leaves_the_report_unchanged(capsys):
    cli.main(["check", "instance:z2closed"])
    default = capsys.readouterr().out
    assert cli.main(["check", "--budget", "2", "instance:z2closed"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("flag", ["--arity-cap", "--budget"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "instance:z2"],
        ["roundtrip", "instance:z2", "functor:shift"],
        ["represent", "instance:heyting2"],
        ["construct", "ek", "instance:heyting2"],
        ["instance", "dump", "z2"],
    ],
)
def test_negative_bound_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: closedcat")
    assert f"argument {flag}: must be an integer of at least 0, got '-1'" in err


def test_zero_bounds_are_valid(capsys):
    assert cli.main(["check", "--arity-cap", "0", "instance:z2"]) == 0
    assert cli.main(["check", "--budget", "0", "instance:terminal"]) == 1
    assert "terminal/category/error (BudgetExceeded)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "fixture", ["broken-compose.json", "broken-j.json", "z2mc-badcompose.json"]
)
def test_object_listed_twice_exits_two_naming_it(tmp_path, fixture):
    target = _edited_fixture(
        tmp_path, fixture, lambda doc: doc["objects"].append(doc["objects"][0])
    )
    out = run_cli("check", f"file:{target}")
    _assert_one_error_line(out, "o0")
    assert 'objects lists "o0" twice' in out.stderr


@pytest.mark.parametrize(
    "fixture", ["broken-compose.json", "broken-j.json", "z2mc-badcompose.json"]
)
def test_non_string_name_exits_two_naming_it(tmp_path, fixture):
    # one fixture for each reader: category, closed category, multicategory
    target = _edited_fixture(tmp_path, fixture, lambda doc: doc.update(name=7))
    out = run_cli("check", f"file:{target}")
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr.splitlines() == ["error: name must be a name, got 7"]


# Each case edits the reference of fixtures/finset.json: its params, and
# in the last case its ref too.
@pytest.mark.parametrize(
    "params,message",
    [
        ({"params": [1]}, "params must be an object, got [1]"),
        ({"params": {"max_size": "abc"}}, 'got "abc"'),
        ({"params": {"max_size": 0}}, "got 0"),
        ({"params": {"max_size": 1.5}}, "got 1.5"),
        ({"params": {"max_size": True}}, "got true"),
        (
            {"params": {"max_sise": 3}},
            'params has unknown key "max_sise"; finset takes max_size',
        ),
        (
            {"ref": "heyting2", "params": {"max_size": 2}},
            'params has unknown key "max_size"; heyting2 takes no params',
        ),
    ],
)
def test_bad_reference_parameters_exit_two_naming_them(tmp_path, params, message):
    target = _edited_fixture(tmp_path, "finset.json", lambda doc: doc.update(params))
    out = run_cli("check", f"file:{target}")
    assert out.returncode == 2, out.stdout + out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    assert message in lines[0]
    if message.startswith("got "):
        assert "params.max_size must be an integer of at least 1" in lines[0]


def test_reference_beyond_the_object_limit_fails_before_building(tmp_path):
    target = _edited_fixture(
        tmp_path, "finset.json", lambda doc: doc.update(params={"max_size": 40})
    )
    out = run_cli("check", f"file:{target}", timeout=60)
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr == (
        "error: BudgetExceeded: finset(40): 2**40 + 1 seed objects exceed budget 64\n"
    )


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(instances.REGISTRY))
def test_registry_check_report_matches_the_benchmark_digest(name, capsys):
    """The full-suite report of every registry instance is byte-identical
    to the digest the benchmark records for it."""
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    want = golden["registry-check"][f"check-{name}"]["stdout"]
    cli.main(["check", "--suite", "all", f"instance:{name}"])
    assert _sha(capsys.readouterr().out) == want


@pytest.mark.parametrize("name", sorted(instances.REGISTRY))
def test_registry_instance_fails_exactly_its_advertised_checks(name, capsys):
    cli.main(["check", "--suite", "all", "--format", "json", f"instance:{name}"])
    items = json.loads(capsys.readouterr().out)["items"]
    failing = {
        it["check"].split("/", 1)[1] for it in items if it["status"] == "fail"
    }
    assert failing == set(instances.get(name).advertised_failure)


def test_represent_reload_outputs_match_the_benchmark_digests(tmp_path, capsys):
    """The represented heyting2 file, the represent report and the three
    roundtrip reports are byte-identical to the digests the benchmark
    records for them."""
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    want = golden["represent-reload"]
    out = tmp_path / "heyting2-rep.json"
    argv = ["represent", "instance:heyting2", "--arity-cap", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    assert _sha(capsys.readouterr().out) == want["represent"]["stdout"]
    assert _sha(out.read_bytes()) == want["represent"]["file:heyting2-rep.json"]
    for op, target, functor in [
        ("roundtrip-z2-shift", "z2", "shift"),
        ("roundtrip-z2-inversion", "z2", "inversion"),
        ("roundtrip-heyting2mc-identity", "heyting2mc", "identity"),
    ]:
        assert cli.main(["roundtrip", f"instance:{target}", f"functor:{functor}"]) == 0
        assert _sha(capsys.readouterr().out) == want[op]["stdout"], op
