"""Pinned bytes of `periods N --orbit k --prec 60` for every orbit at a
level N < 80 that is certainly new (88 orbits).

The digests were taken with the complex-power summation that the integer
fixed-point kernel replaced, with zeros printed unsigned; the kernel
reproduces every byte.  Three orbits run in the default suite; the whole
sweep (about a minute) is marked slow: run it with `pytest -m slow`.
"""

import contextlib
import hashlib
import io

import pytest

from modfol.cli import main

PERIODS_60_DIGESTS = {
    (11, 0): "776d688af8174f98705a628cfc104a6a054c9190b4a6252a2eaf7c36649dd5b2",
    (14, 0): "4e3f66f3cb630063218dfce6a4e6a5b5008a02abef4e30c8837a059bcd2ce8fd",
    (15, 0): "edfd9bb30de793d7a17080aa5ba8009975dd8e5e48c9b847ec2daa4ca04c3a52",
    (17, 0): "55fd2c8e662158e460cb7f73124e1a8fda9eff8d1f1a283c5cde9d2122065e09",
    (19, 0): "070080a04138cc7a3d0c7691bf3b254707295a684e270b01c689287bda516964",
    (20, 0): "17e89788c3427b007284fdfe4cddc78e5920e5132c9ccbe0fb5eed53f7c0cbf7",
    (21, 0): "bbecc177059c65b6ec4dc6acc4f2ad39e77d33518ccda3a5bd357f2bd6c6b2e6",
    (23, 0): "4a94c1645cb4541d8c0e7d5b23e71ca4b0e9e998881b99251bac80f4e5aeadaa",
    (24, 0): "1531b3910d576da59c1de29dbd8c0fa6c26eda74d9672ee1fb47d3939252343e",
    (26, 0): "50769c66ba1ec9f7a45ed2ab3a2beba551192aad1544270ea82c9a8da8b9acb8",
    (26, 1): "43b4022c54552d2d4f315f84d02d3b33735a16644d45f9ae92b3c17b4681cc01",
    (27, 0): "815cac8eaef6708621e3325e9cd46451d55dd603587b9a26f258b3239247dfd6",
    (29, 0): "ed90177d163d53ab7c41976216f4e5a7daddf5955e911bc9b93c890ee793f90f",
    (30, 0): "3b982fec0d780f8606848e7bce1521cae6949c1b28bb7cfc169ab1cb19075cff",
    (31, 0): "e0c4419682e50326b63cee61a3d840ad2f576ccfd0b019202d0d9eef2808c9f1",
    (32, 0): "51bc63fb3d52648923bb388f44c9d09a6e88c4fedf5d03647af78c78071bfba0",
    (33, 1): "df7e47c97580a088d853ee5a1a3e4ab84894e1936eaef64f66ec070f65ee3454",
    (34, 0): "acae48b4264c89d20ef885f53c1154a8dc44c97bbf0ca93bebd85ffd030e4fa8",
    (35, 0): "2851fd48279c4c133dbf6f43b79e701fcba003340fe966aa3fa5007fc3c60b94",
    (35, 1): "5837fa27dae0eb453b8ec54962f885f3af61f1ca55368e9ba992c27dcc46f0a9",
    (36, 0): "ff48f372360e2b8d771322a2d01437f40de60a593cbc2c472ceb063ca12d7564",
    (37, 0): "7999bef36a1e204bbf54cffa23fc7c781d9b5c0d82b74665d5506f191be07a94",
    (37, 1): "d5e03b0a6d083b7244be3fc24d23bedc8e4f46ef21688c31f6d2130f7b2375ce",
    (38, 1): "5ba592530d61bf3e322f140102d415edea4ecb472680aa2d72baec78b5eadfca",
    (38, 2): "c4cb8c691c3e0008668fd80ae8ac14a8dc9128aa3c9be9152082240cd4b30c7c",
    (39, 0): "f671c523c3c7e305ca3b2bdeec88a9d8039053e55c3e175d33849b1db6d74d37",
    (39, 1): "00fcc7f1478bdd8f54cc04dee3b1182b550f13daa0c2c3b7ed18b166b36c596a",
    (40, 1): "f32b6853a9741f211d2d1e34d9b0a9fa2b21449964f0404743b001a4b385e333",
    (41, 0): "814e9c3d3ab45dd9e8dbb27ebfcc37b0599044dc542a19afd63e79e09fd03526",
    (43, 0): "1dd05b2e10bc3bd394350129b40a6fd927be5c28182e0ce0383bcbaa5ca70c66",
    (43, 1): "98692c76beb2b06fbc0df936fb9c37b7e4409bb7c7277cbb3da59367f62df698",
    (44, 1): "fbcf1d5ad1bd3cf578cb3e716e031f72275eec16338ee361199024f7f8d18a58",
    (45, 1): "386aa68c81bd1777753e538d1fba63ac321bdb96e5bc0f4ae9bd43112279ee3e",
    (46, 0): "0a5d8b491c2337e48d613068373b874ed401e6651245832427693befa0798451",
    (47, 0): "1849c79c9e8798407d685b7ecfc0b04a59a2946a5f6251ecdd8187fd45e390fa",
    (49, 0): "2897b334fb0ce64d791b50c4b1c77153a0a13b03fc56f1f9d517d498d32c46dd",
    (50, 0): "0cd4ef897e48cd6e029b9dbea297296ea9ebd94458592d3d7d9d154e354e02a7",
    (50, 1): "4e74bc03d9d55c7c254a261b438b69bd29e889088c6eab8ca821e982b77252b0",
    (51, 1): "5f7de8d88f3036782d51c7e2aee8a5f49f066fb038bdf0127a0916d00f7f1fad",
    (51, 2): "eb612e81ad911cfe141f99ea1ae16efe5411da57cc702873b789b4e9b8dd30e2",
    (52, 1): "f1226462ab19c5a50f98cfd0f3643ec7ffe92cec579c8280b2ec3fae95a2e744",
    (53, 0): "5259452b5f46ee251e2215a7be83cbdef40be819bde254e9cb13b3784be2e142",
    (53, 1): "d30164fc3e1f462136a3dbef02e23b20f98de1e3e0c0e1c3483aef828a95a0e8",
    (54, 0): "c78e09798f6e02f3ce76c6a825b248c3cd3325f511655a0ae77c1214f69dccb9",
    (54, 2): "7379df1a008234adf9d6be372ac61c63fdb96bc15b332d7d76817402ab12979d",
    (55, 1): "92059bc1587ca9a0da953932c9cc869b1617080d06b0d3e76e24583e2465b51f",
    (55, 2): "6ac0f1cc3abf94d8bb1fad814c41cd40787ba8012ef359994ad8d74281a71a0c",
    (56, 1): "45e5589b41d15729e3d1af09af5fea29159e24d6eee98debf2284a4ec2ad4b61",
    (56, 2): "ac870a2c82fbe35d7193bebdb79859e11cb5b0689149d10b35b205f48ef709a9",
    (57, 2): "b2379a1024d5d7613dde1729ec0d9d5b0862fa2cc90fa74709f208c1579a8676",
    (58, 0): "89e968c18a98ffefad6059ed151d87411ba234af33bfb88c2c032b0fc544f69e",
    (58, 1): "2ee88ecff79896c41c508da6de92366f0a7f0f5d909de7abb8de09305c8d8077",
    (59, 0): "10a31a71b6b7281eb86f2fc6536af5791cf4ae5f45d57ccf34b99be98c5184cc",
    (61, 0): "3751f08b4932f6535d3228c9fb66d87b455725193b8cc6d9ce09cb6d2c783d45",
    (61, 1): "7e33f13547f3f3f12fe441c00492a0b67014bbd62f8a6a65825b4346544ebb7f",
    (62, 0): "67c6b70b78618f6bcbee3cf45ffa9e738c5e8aa76a42414249aaa92a52d7c904",
    (62, 2): "4a5aaf9515e534d7718c06f04f2278b6aa0ec75aa43b8bfc0ee6414335d1e6b2",
    (63, 1): "5da1a4bd6531e3d4fa1cb557dbcfed5758dbabf8e207873243ac8ce204034ac8",
    (63, 2): "47a348e79121a78fb178e5a591f5314cc25c0a4bba96df85863da600b0297a87",
    (65, 0): "527bc3680fb62b87d751169a5cb2b3eb0c7f93ddbcef54133c6f0c0058becc8d",
    (65, 1): "93cfbf036eaa4062677da562cb2c22b087673fcd0e46d369a1fd834b790938ca",
    (65, 2): "5805b090a4430a2e260753b5e76cfcf9126706e4d6c5ccd333c0adae4e3317f8",
    (66, 0): "efb586bf0dd2579e00d0dd69a73c6af3645c97c65f821b8df2d4177ba3520b21",
    (66, 2): "081ccc48d9dfedf3008ef60b6d6b7412bb3851eba54b25aa84b61b9d5946b174",
    (66, 4): "8a8a493102ef8f7dba352602dcecf151572b3e0468f9210fa6fcef29851fd95c",
    (67, 0): "b1d2278e14acc944498ca9c662e234e46151c12b5aa67e171a459ba325572500",
    (67, 1): "701caada86b3a8d48873b2314593939bb41f991c6d92dd8bda9e171a74032bf1",
    (67, 2): "ba81684456809244966e54c14f1b5d126113887086b1204ecc033f907bdd1287",
    (68, 2): "8cb657e34643d3ce1b6842674cc549199c195087986f3716f122e93413894726",
    (69, 0): "e14c05e7beab879a0f7f5e5c93c1162ee92843ab213f56826365fa9196f51d9e",
    (69, 2): "b96de59b58705330fb4e9040c1874eb469c3fd19de878e15b30b9c04d8be9ba5",
    (70, 1): "747cd7252a02775354484c17ac672ce3213b1d04f0c4f5d33d16f77d8018af2c",
    (71, 0): "468f7549299f532b60264e984a7eb73c1af328970c4e7279a531cebaff894902",
    (71, 1): "d5ebbe3c98229bf84d6f8c271adf0d6874be0032cec4c413decdf0c11a5b0ad5",
    (72, 2): "f02f1d252d529230d209e88e3478219518b5e182625528817f7bf9cf56fd0665",
    (73, 0): "9505dd223b3f424e0bc737a0ab6e7c79bb98114d197642af85e0b418572c3ce2",
    (73, 1): "91e3044c0fe90e7fa5cab5ad6ac3b79c6981ce2dcb289531577baaaa8bad9b94",
    (73, 2): "eb87abb50de6d4dedd334537b2751597c3c215618a2fe9af1b789b7f6929493a",
    (74, 2): "f7c6a557c0faa2f6595788adc5b032629fba5bf911f7ce35745672ce33824097",
    (74, 3): "ef2e99055a508bdf6c9437f70fd89ea6e4c49eea96036d463e3fd14513ba2dbf",
    (75, 0): "aba95e6f9746e8d5c6b9daacce33ca217a51b77cb25b3c2673a1ef02b81011f1",
    (75, 2): "79df3431aa27698aaf8a5e6c4147aa97c6b4d6ad62462613bfdb684652dadbae",
    (75, 3): "bbbb1cc270f8062d7ed4606dd6daf02fa323e0a15782dad28d182fad6c317a2f",
    (76, 3): "b95cf554a962f7087a4cbdbff80f386a579b6e60433426f360049d6f3597025b",
    (77, 2): "326399d6f11a3e564ec9aee3127bf56799942829c8190f74e3d3b71802e326ec",
    (77, 3): "7616ff79dc719c6359116ccda1c91eebdc7a6d487b3e678792dc5dae11bc0afd",
    (79, 0): "1479f38b6e731d50691f10b89acbf04665c5f85bbac8e0e8296cf5880caa06b3",
    (79, 1): "7d23cad936799d06d2c6cbc8fcd8a3db7f46b586876b8dec93b2ab782d5e49c3",
}

DEFAULT_RUN = ((11, 0), (23, 0), (37, 0))


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    # one level cache for the module, so each level is decomposed once
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MODFOL_CACHE", str(tmp_path_factory.mktemp("cache")))
        yield


def _periods_digest(N, k):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["periods", str(N), "--orbit", str(k), "--prec", "60"])
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_pinned_orbits_are_the_new_orbits_below_80():
    assert len(PERIODS_60_DIGESTS) == 88
    assert max(N for N, _ in PERIODS_60_DIGESTS) < 80


@pytest.mark.parametrize("N,k", DEFAULT_RUN)
def test_periods_bytes_pinned(shared_cache, N, k):
    assert _periods_digest(N, k) == PERIODS_60_DIGESTS[N, k]


@pytest.mark.slow
@pytest.mark.parametrize("N,k", sorted(set(PERIODS_60_DIGESTS)
                                       - set(DEFAULT_RUN)))
def test_periods_bytes_pinned_sweep(shared_cache, N, k):
    assert _periods_digest(N, k) == PERIODS_60_DIGESTS[N, k]
