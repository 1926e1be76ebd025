"""Byte-identical CLI output: SHA-256 digests of stdout, plain and --json.

The digests were recorded from the CLI before the exact solvers and the
Hecke checks were folded into one core; the eta expansions of fractional
order (1/8, 1/6, 121/24) and the scale-2 Eisenstein series were recorded
before `QSeries` changed from a dense grade-24 grid to one coefficient
per q-step.  Any change to a printed number, label or layout shows up
here as a digest mismatch.  Each case runs in-process, so the whole file
takes about three seconds.
"""

import hashlib

import pytest

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
)


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(c[0]) for c in GOLDEN])
def test_golden_stdout(capsys, argv, code, digest):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
