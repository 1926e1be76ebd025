"""Byte-identical CLI output: SHA-256 digests of stdout, plain and --json.

The digests were recorded from the CLI before the exact solvers and the
Hecke checks were folded into one core; the eta expansions of fractional
order (1/8, 1/6, 121/24) and the scale-2 Eisenstein series were recorded
before `QSeries` changed from a dense grade-24 grid to one coefficient
per q-step; the chi(-4) rep-count cases (form 1,1,1,1,1,1) were
recorded before the basis and cusp expansion caches became one; the
default-mode (oracle and formula) and --oracle rep-count cases were
recorded before the brute-force oracle walked sign orbits.  Any change
to a printed number, label or layout shows up here as a digest
mismatch.  Each case runs in-process, so the whole file takes about
three seconds.

The `--help` digests were recorded before `--json` was declared once for
every subcommand; they are taken at 80 columns, since argparse wraps its
help to the terminal width.  The text cases are also rendered from their
records alone, to show that the plain output carries nothing the record
lacks.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from qformlab import cli, quadforms
from qformlab.cli import main

# (argv, exit code, SHA-256 of stdout)
GOLDEN = (
    (('basis', 'dump'), 0, 'bd87f51b0778c6cee395677ea08a5f84719efffa6e36d140696b7fe5965232c7'),
    (('basis', 'dump', '--json'), 0, 'cf7fef60f56ec7513f43a80d26cc2444b242d647bfc8fd181ed82927f1f60190'),
    (('basis', 'verify'), 0, 'b271c4984ddc6750577a5f7cffc411719a62efdc5fe7256e648afa6f689bf97a'),
    (('basis', 'verify', '--json'), 0, 'e8ff53c000b8b9cb33008fa7ec41f44735b6b39f0e8c75d0af9e22dd6c9ce6e0'),
    (('derive-table',), 0, 'b2dfb3f527a6747b32bc9b713be6b0daae6f7644e6630511837bada5993dcd49'),
    (('derive-table', '--json'), 0, 'bc8ef91ca7feb5362a719b766015bf7926fb3606d88ba113a6245f31fe4732fa'),
    (('verify-tables',), 0, 'cddab2368f36a5585aaa3e92a6218bb33db001a2d120cd056f4bc1939725e8f8'),
    (('verify-tables', '--json'), 0, '01fcb4ad0cbc493b16d49a48c9318fd722c81d7e82da0057bc018d1038a178f3'),
    (('verify-newforms', '--precision', '60'), 0, '053006584b82adb9d4a21dbf78d50a31d614ef612c3229edad8f4f34cbeff9c6'),
    (('verify-newforms', '--precision', '60', '--json'), 0, '0e464866221b855305b419adeb00319ce0e1fa971b81cd10797ebb66ae749382'),
    (('verify-newforms',), 0, '4839626d92ca15c038c804e731da50e5b052bf81e40e8ae85422dc4e6d0f19c5'),
    (('verify-newforms', '--json'), 0, 'bf6ad39cb45c344c5bf7517d3b9b13c109660acc0fa9f2fbae496ebfed10fbdf'),
    (('verify-remarks', '--precision', '60'), 0, '98f28c1b43dcc0d91f94e9b4c8d673b9f4cf7e749234d4cb272831264e935a4d'),
    (('verify-remarks', '--precision', '60', '--json'), 0, '496d3321eeef4a9cf8bed58ff767d81e623f3a4a0ee67c65e4c1ce52616b6eff'),
    (('ligozat-check', 'eta24[0,3,0,-4,-5,2,16,-6]'), 0, '8ec870fbd548a708163371d3b3bc85eef18ea0be51941a0ce04afe42909fad99'),
    (('ligozat-check', 'eta24[0,3,0,-4,-5,2,16,-6]', '--json'), 0, '5b39e478632ac8a76ceacec98e786330687f870db843a0268dae9c1428f35988'),
    (('ligozat-check', 'eta24[1,0,0,0,0,0,0,5]'), 1, '5f2e1bf22cc1abaa554b1a98893d6b42acf60acf92f8fad7cfb0e6488d6e0316'),
    (('ligozat-check', 'eta24[1,0,0,0,0,0,0,5]', '--json'), 1, 'dfc790e14ef9b26f87ba0ff95ee0aba8b07ffd7c64e6d94131169434fc8f858b'),
    (('ligozat-check', 'eta8[-2,-5,23,-10]'), 0, '1d519612c1bec093b5ae2ca6beb4f8a28ea81c8189c8a92e7eda7948e765aa59'),
    (('ligozat-check', 'eta8[-2,-5,23,-10]', '--json'), 0, '58a803406b7a0b0014f1b3d4b4f13e9125c51518d4b340f19273d8f76bc7945c'),
    (('eta-expand', 'eta1[1]', '--precision', '30'), 0, '42b645fdf9713f87caff0835e404623990d5436b3c206cb24c49d9f4495b60b2'),
    (('eta-expand', 'eta1[1]', '--precision', '30', '--json'), 0, '7168b67997b961c42125dc4b2e97ee87b12f672e4a6972f22f3f0ce220e85053'),
    (('eta-expand', 'eta24[0,3,0,-4,-5,2,16,-6]', '--precision', '60'), 0, '48a837dc34bc0175db11f03259b5e86a4287830e67c48e221f5224e0f8334245'),
    (('eta-expand', 'eta24[0,3,0,-4,-5,2,16,-6]', '--precision', '60', '--json'), 0, '508d71841448ba3126636758ffc29c6a6c2e941c3b4ded4456232884fbf7b629'),
    (('eta-expand', 'eta2[1,1]', '--precision', '12'), 0, '4db66e0c3ab8058d0e288b1284ad701211727d845ddaf75b6f6bf326f6426bd0'),
    (('eta-expand', 'eta2[1,1]', '--precision', '12', '--json'), 0, '51a4accb8b3068c7cd1f08623db7e9b29565edb2e95522fb2ddbafef1fd9d550'),
    (('eta-expand', 'eta3[1,1]', '--precision', '12'), 0, 'e8beafd54f9f6d4723561cba966547a0b2a4dc9c41328af1394522e3e37f3744'),
    (('eta-expand', 'eta3[1,1]', '--precision', '12', '--json'), 0, '8ea8d8e486d6a287b1c2e34777c40cd73d1bcb29230efcdca36bf1dbf1fa1c76'),
    (('eta-expand', 'eta24[1,0,0,0,0,0,0,5]', '--precision', '8'), 0, 'dcb699d398fc62c509bd0927d65fecfaba079e56841dd7dd1c17e4dd2e3a9e36'),
    (('eta-expand', 'eta24[1,0,0,0,0,0,0,5]', '--precision', '8', '--json'), 0, 'b1d4f51bdb46b9d1a4b8f1f2461e2b0523054fc0975bcff41d03d9a7e85c2985'),
    (('eisenstein', 'E3[-4,1,1]'), 0, 'a9d4f0f447d14cf0b37e648c6fd065183962be6f5832bae63b9e99ba5e2f1ccc'),
    (('eisenstein', 'E3[-4,1,1]', '--json'), 0, 'ba9f31437d70b1e715a833d77cc580b27b2ffdf154183d3493b3a04ca93f7788'),
    (('eisenstein', 'E3[1,-4,2]', '--precision', '12'), 0, '139cbea242695e4d0cbe2a8bedd0c20cd6cd98c4e70c4a300c61c5237471fee5'),
    (('eisenstein', 'E3[1,-4,2]', '--precision', '12', '--json'), 0, 'd691ef7e0633074bd8b55524c059936734004cc3c5d632b0adaeff414d7af4be'),
    (('rep-count', '--form', '1,1,1,1,2,6', '--n', '300', '--formula'), 0, '93af50c86affe7c5006cc5f727faa138fec41676afea4193ce6e33b8373520bd'),
    (('rep-count', '--form', '1,1,1,1,2,6', '--n', '300', '--formula', '--json'), 0, '30ad27db2f8816e73f6be02b610453c6726252c31df07e48ed4669161cf6eb2a'),
    (('rep-count', '--form', '1,1,2,2,3,6', '--n', '500', '--formula'), 0, '628dbff5af38570bb3fc3ecd67efe7d3cae9fdf7f373b107fe260179be17d5d0'),
    (('rep-count', '--form', '1,1,2,2,3,6', '--n', '500', '--formula', '--json'), 0, '99b59a32a3f9d6f7bd238a610ddd149351d4cb228a5635115a959499fa949ead'),
    (('rep-count', '--form', '1,1,1,3,3,6', '--n', '200', '--formula'), 0, '33cff7cee901fb30b011d006683b660b1811682d491c4306bbf04196225c9bde'),
    (('rep-count', '--form', '1,1,1,3,3,6', '--n', '200', '--formula', '--json'), 0, '3a23b3015a56526244ef6f33fed1e0b1b248db902162ec3861e481e6be9aa0e1'),
    (('rep-count', '--form', '1,1,1,1,1,1', '--n', '400', '--formula'), 0, '3da32d25a148ead9db5025f61acde5d7e570cfc9ea051b7e404b5654ec55b832'),
    (('rep-count', '--form', '1,1,1,1,1,1', '--n', '400', '--formula', '--json'), 0, '23c496e854ae3e4a3277f977397b7233fe3a7fd5a8b785d155d168aed10e8554'),
    (('rep-count', '--form', '1,1,1,1,2,6', '--n', '300'), 0, '93af50c86affe7c5006cc5f727faa138fec41676afea4193ce6e33b8373520bd'),
    (('rep-count', '--form', '1,1,1,1,2,6', '--n', '300', '--json'), 0, '80222187f7e8cd4a2f94e0b9e3a6fa8c4c61f65db79a2aafd85ed963df3912d9'),
    (('rep-count', '--form', '1,1,2,2,3,6', '--n', '400'), 0, '56e619c60ab7b6507c3f9358b3d67644a421e8c6a22875155d3614074d16f3a7'),
    (('rep-count', '--form', '1,1,2,2,3,6', '--n', '400', '--json'), 0, 'b8bf8171f7fecb9013ac7f46802aeb41afaf04777215ff928ca58e41fdeab238'),
    (('rep-count', '--form', '1,1,1,3,3,6', '--n', '200', '--oracle'), 0, '33cff7cee901fb30b011d006683b660b1811682d491c4306bbf04196225c9bde'),
    (('rep-count', '--form', '1,1,1,3,3,6', '--n', '200', '--oracle', '--json'), 0, '5abbeb369c3cc4050869a2d7c499eaf379b533945f892269a17c4ac43ab2b579'),
    (('rep-count', '--form', '1,1,1,1,1,1', '--n', '100', '--oracle'), 0, '70b266069d56787ee0c34ffbbd6d68f4c2d4a89f74232fa4b99e70b15c205dde'),
    (('rep-count', '--form', '1,1,1,1,1,1', '--n', '100', '--oracle', '--json'), 0, '01f4567faf3490e2a0d45d085b4c3d58cfbdc63c91a8a08f7a2837cb20725633'),
)


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(c[0]) for c in GOLDEN])
def test_golden_stdout(capsys, argv, code, digest):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# (subcommand, SHA-256 of its --help stdout at 80 columns)
HELP = (
    ((), '51bc2ac7100c3e08835db84ed861931d122cbb9ab7554cc8c61a34f46ed9310e'),
    (('eta-expand',), 'e40448e0dff91365f5a77ab3e5c92fed1a71bb315f49ffa4f1223cea6fdeef05'),
    (('ligozat-check',), '06e9f4a3ab559fb3f700ea02d2ac741833896b05ffb5efff2ee3b615e2394f53'),
    (('eisenstein',), '335c4dada520f8c8b71e219cd67f337d655845c46a17189f1863e5da31f27f21'),
    (('basis',), '314b8ad8671deac5011d8936f9b27dfe91f849da7dcdee61497a8f0cd73d9387'),
    (('rep-count',), '5ffe492a07ec03a2a4aa8dbc62e639d72c6ac733701814b64a1c9197656e47ab'),
    (('derive-table',), 'a09f9902ec59d4816027d13d9a7cc44ffe1d952fe7e1906938a4e69ccf67fa91'),
    (('verify-tables',), '09c620cdc2bd13e0dfefe750f8f7b80646d88b2352b29997c38b14dce1a651fb'),
    (('verify-newforms',), '747250f852ca726d65f7c296964379abb0b96ea9df9d71eb52ebb2c27a4f1092'),
    (('census',), '6f3ed333f13c8fc18970832aacfba10d1c67c27ab4659997878139b4f91f16a6'),
    (('verify-remarks',), '13f04ee25a92a30d135d4d2540efe25055a756009978fe8c2fd968f0efb58449'),
)


@pytest.mark.parametrize("argv, digest", HELP, ids=[" ".join(h[0]) or "qformlab" for h in HELP])
def test_help_stdout(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_text_is_rendered_from_the_record_alone():
    # every record is built first and rendered after, through a JSON round
    # trip that keeps insertion order and with freshly parsed arguments, so
    # a renderer that read anything else (a value JSON does not carry, a
    # global or an argument attribute its builder set) prints other bytes
    json_digest = {argv[:-1]: d for argv, _, d in GOLDEN if argv[-1] == "--json"}
    cases = [(argv, code, d) for argv, code, d in GOLDEN if argv[-1] != "--json"]
    assert sorted(argv for argv, _, _ in cases) == sorted(json_digest)
    parser = cli._build_parser()
    records = []
    for argv, code, _ in cases:
        args = parser.parse_args(list(argv))
        record, got = args.func(args)
        assert got == code
        records.append(json.loads(json.dumps(record)))
        assert records[-1] == record  # JSON values only: no tuple, no Fraction
    for (argv, _, digest), record in zip(cases, records):
        args = parser.parse_args(list(argv))
        # only verify-newforms keeps facts its JSON leaves out
        text_only = record.pop(cli._TEXT_ONLY, None)
        assert (text_only is not None) == (args.command == "verify-newforms")
        assert _sha256(json.dumps(record, sort_keys=True) + "\n") == json_digest[argv]
        if text_only is not None:
            record[cli._TEXT_ONLY] = text_only
        assert _sha256("\n".join(args.render(record, args)) + "\n") == digest, argv


def test_verify_tables_tags_each_mismatch(capsys, monkeypatch):
    # no golden case has a mismatch: the printed disputed cell and the first
    # printed cell of chi(-24) move by 1/3, and each mismatch is tagged from
    # DISPUTED_CELLS; both outputs were recorded before text and JSON were
    # rendered from one record
    (exps, col), = quadforms.DISPUTED_CELLS
    true_load = quadforms.load_fixture

    def moved(disc):
        rows = list(true_load(disc))
        for i, row in enumerate(rows):
            if i == 0 or row.exponents == exps:
                vals = list(row.values())
                vals[col if row.exponents == exps else 0] += Fraction(1, 3)
                k = len(row.eisenstein)
                rows[i] = dataclasses.replace(row, eisenstein=tuple(vals[:k]), cusp=tuple(vals[k:]))
        return tuple(rows)

    monkeypatch.setattr(quadforms, "load_fixture", moved)
    argv = ["verify-tables", "--char", "-24"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "chi(-24): 20 rows, 2 mismatch(es), 1 undisputed -> FAIL",
        "  row (5, 0, 0, 1) column 0: derived -1/23, printed 20/69 [UNDISPUTED]",
        "  row (0, 3, 1, 2) column 5: derived 4, printed 13/3 [DISPUTED]",
    ]
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"-24": {
        "mismatches": [
            {"column": 0, "derived": "-1/23", "exponents": [5, 0, 0, 1], "printed": "20/69"},
            {"column": 5, "derived": "4", "exponents": [0, 3, 1, 2], "printed": "13/3"},
        ],
        "ok": False,
        "rows": 20,
    }}
    parser = cli._build_parser()
    args = parser.parse_args(argv)
    record = json.loads(json.dumps(args.func(args)[0]))
    args = parser.parse_args(argv)
    assert "\n".join(args.render(record, args)) + "\n" == out
