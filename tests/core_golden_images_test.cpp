// Pins what the compiler emits, byte for byte, across commits. The
// translate snapshot test pins operator counts, the pipeline test three
// stage summaries and the golden-stats test the simulated schedule: an
// edit that renumbers nodes, reorders arcs or relabels a node passes
// all of them. This suite compares each compile against hashes recorded
// from an earlier build instead.
//
// A row is one (program, flag set) compile through core::Pipeline::run
// on the raw source. It holds the serialized blob's content hash and
// size, and FNV hashes of the final graph's Graphviz rendering, of the
// loop-transform dump (the transformed CFG, node numbering included)
// and of PipelineTrace::summary(). If a change is meant to alter the
// output, the failure message prints each new row in table syntax;
// paste it in and say why in the change description.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "lang/corpus.hpp"
#include "machine/blob.hpp"
#include "support/cold_programs.hpp"
#include "support/hash.hpp"
#include "translate/options.hpp"

namespace ctdf::core {
namespace {

struct Golden {
  const char* row;  ///< "<program>/<flag set>"
  std::uint64_t blob_hash, blob_bytes;
  std::uint64_t dot_hash, loops_hash, summary_hash;
};

// clang-format off
const Golden kGolden[] = {
  {"running_example/default", 0x979c8d387bfe1d67ull, 1352, 0xb950375a5fdc33d7ull, 0x03ceb0e2f3f869eeull, 0x50bf9021a5a5f98full},
  {"running_example/schema1", 0x76176806716227bfull, 1116, 0x663ec99b7349f455ull, 0x813f0174a2367c13ull, 0xec32a7a6b299c750ull},
  {"running_example/no-opt", 0x979c8d387bfe1d67ull, 1352, 0xb950375a5fdc33d7ull, 0x03ceb0e2f3f869eeull, 0x50bf9021a5a5f98full},
  {"running_example/mem-elim", 0x4fd4d65d909b78deull, 1141, 0x9b91137474b65065ull, 0x03ceb0e2f3f869eeull, 0x6f998f6c6952de83ull},
  {"running_example/dse", 0x979c8d387bfe1d67ull, 1352, 0xb950375a5fdc33d7ull, 0x03ceb0e2f3f869eeull, 0x6d71eca4ea5b2d29ull},
  {"running_example/opt-all", 0x979c8d387bfe1d67ull, 1352, 0xb950375a5fdc33d7ull, 0x03ceb0e2f3f869eeull, 0xbdf240a53ad1a8b2ull},
  {"running_example/fanout2", 0x979c8d387bfe1d67ull, 1352, 0xb950375a5fdc33d7ull, 0x03ceb0e2f3f869eeull, 0x16fb54374d3a33a4ull},
  {"running_example/par-reads", 0x979c8d387bfe1d67ull, 1352, 0xb950375a5fdc33d7ull, 0x03ceb0e2f3f869eeull, 0x50bf9021a5a5f98full},
  {"running_example/cover-unified", 0x67d52d0aac0340d9ull, 1186, 0xc11cea760d08028bull, 0x03ceb0e2f3f869eeull, 0xd82895b90517f2c2ull},
  {"fig9/default", 0x2c479e33b9067290ull, 1188, 0xe1c02cffd7ca1843ull, 0x9ada35fc5a3641bdull, 0x8c78c0349378ed1aull},
  {"fig9/schema1", 0x0333305571814e61ull, 1142, 0xa6a259a91f178507ull, 0x813f0174a2367c13ull, 0xe31753520d89bbc5ull},
  {"fig9/no-opt", 0x63d448b6c9bb9a02ull, 1556, 0xd5afe0ecc1316b29ull, 0x9ada35fc5a3641bdull, 0xc4165e0968deae8full},
  {"fig9/mem-elim", 0x04090cc2f381a04cull, 1249, 0x3b5e01e22ddcfa95ull, 0x9ada35fc5a3641bdull, 0x780c549136e67326ull},
  {"fig9/dse", 0xade069bc96c0119aull, 942, 0x2336c5cacb433bfdull, 0x70edafc20e090027ull, 0xe2f789d33d87f99full},
  {"fig9/opt-all", 0x2c479e33b9067290ull, 1188, 0xe1c02cffd7ca1843ull, 0x9ada35fc5a3641bdull, 0x065702bbe0c387eeull},
  {"fig9/fanout2", 0x2c479e33b9067290ull, 1188, 0xe1c02cffd7ca1843ull, 0x9ada35fc5a3641bdull, 0xfee315becd8ad0b3ull},
  {"fig9/par-reads", 0x2c479e33b9067290ull, 1188, 0xe1c02cffd7ca1843ull, 0x9ada35fc5a3641bdull, 0x8c78c0349378ed1aull},
  {"fig9/cover-unified", 0x0333305571814e61ull, 1142, 0xa6a259a91f178507ull, 0x9ada35fc5a3641bdull, 0x0e7f246c0ae97448ull},
  {"nested_bypass_4/default", 0x09927c78970acdd1ull, 4324, 0x998d4fc37f19f993ull, 0x3b384c665b0318eeull, 0x089c234ad1cb19bfull},
  {"nested_bypass_4/schema1", 0x8fbd5f7e727e0838ull, 3750, 0x1a3d2047a3d62720ull, 0x813f0174a2367c13ull, 0xd122d641fa8a631eull},
  {"nested_bypass_4/no-opt", 0x1badb97ec890998aull, 5244, 0x9db7d75ce0196ab3ull, 0x3b384c665b0318eeull, 0x6eb7d73fc1d973e4ull},
  {"nested_bypass_4/mem-elim", 0xc2696b7664383a11ull, 2993, 0xf5fed666afda713eull, 0x3b384c665b0318eeull, 0x34b2c78eff9fdcd0ull},
  {"nested_bypass_4/dse", 0xcd1956d5efaf92e2ull, 4078, 0x91b44e34b000db3full, 0xd5888790169fe1faull, 0x40551c6feee7cccdull},
  {"nested_bypass_4/opt-all", 0x97f6083ecf1ec557ull, 4243, 0x09bdc0b2ebd2454eull, 0x3b384c665b0318eeull, 0x5617534b7832c66dull},
  {"nested_bypass_4/fanout2", 0x09927c78970acdd1ull, 4324, 0x998d4fc37f19f993ull, 0x3b384c665b0318eeull, 0x309993da26c52e64ull},
  {"nested_bypass_4/par-reads", 0x09927c78970acdd1ull, 4324, 0x998d4fc37f19f993ull, 0x3b384c665b0318eeull, 0x089c234ad1cb19bfull},
  {"nested_bypass_4/cover-unified", 0x8fbd5f7e727e0838ull, 3750, 0x1a3d2047a3d62720ull, 0x3b384c665b0318eeull, 0x8eabbf952a18abaeull},
  {"fortran_alias/default", 0xcafa16663eaa150bull, 3241, 0xbdd8f754d70f4e42ull, 0x0d9ed04be97735afull, 0xb43c178be2a43979ull},
  {"fortran_alias/schema1", 0x0d029f50e771c781ull, 2520, 0xfd347da236396c4cull, 0x813f0174a2367c13ull, 0x63ab0def173ea715ull},
  {"fortran_alias/no-opt", 0xcafa16663eaa150bull, 3241, 0xbdd8f754d70f4e42ull, 0x0d9ed04be97735afull, 0xb43c178be2a43979ull},
  {"fortran_alias/mem-elim", 0x06de00b6fdc856b9ull, 2700, 0xd1c761ab91c8000full, 0x0d9ed04be97735afull, 0x1888241ec151f275ull},
  {"fortran_alias/dse", 0xcafa16663eaa150bull, 3241, 0xbdd8f754d70f4e42ull, 0x0d9ed04be97735afull, 0x637d292d07b848e6ull},
  {"fortran_alias/opt-all", 0xcafa16663eaa150bull, 3241, 0xbdd8f754d70f4e42ull, 0x0d9ed04be97735afull, 0xd0b04be804cce21dull},
  {"fortran_alias/fanout2", 0xcf5b03b587d5c039ull, 3466, 0x5064b21ae86b93ccull, 0x0d9ed04be97735afull, 0x2d94615f2c33ac25ull},
  {"fortran_alias/par-reads", 0x1ff9d17b8c48b459ull, 3433, 0x8ac6da8bee33af7aull, 0x0d9ed04be97735afull, 0x56761dc833e03409ull},
  {"fortran_alias/cover-unified", 0x1f3b80ef75b60292ull, 2312, 0x33201175b9e6fe02ull, 0x0d9ed04be97735afull, 0xb3206801d012f9a3ull},
  {"array_loop_10/default", 0xb82533e310bdb136ull, 1282, 0xea57be56042e0a1dull, 0xe9a05a15e38454e1ull, 0x9478219dc830a99aull},
  {"array_loop_10/schema1", 0xae7bd953d233f05eull, 1049, 0x02233792940da73full, 0x813f0174a2367c13ull, 0x58f1e379148ad7abull},
  {"array_loop_10/no-opt", 0xb82533e310bdb136ull, 1282, 0xea57be56042e0a1dull, 0xe9a05a15e38454e1ull, 0x9478219dc830a99aull},
  {"array_loop_10/mem-elim", 0x473442b557b4272cull, 1061, 0x5c27657dee0d103bull, 0xe9a05a15e38454e1ull, 0xda35fad9b8524c81ull},
  {"array_loop_10/dse", 0xb82533e310bdb136ull, 1282, 0xea57be56042e0a1dull, 0xe9a05a15e38454e1ull, 0xeed2477f84b80426ull},
  {"array_loop_10/opt-all", 0xb82533e310bdb136ull, 1282, 0xea57be56042e0a1dull, 0xe9a05a15e38454e1ull, 0x07c6a4ca3e8e9a9full},
  {"array_loop_10/fanout2", 0xb82533e310bdb136ull, 1282, 0xea57be56042e0a1dull, 0xe9a05a15e38454e1ull, 0xd23d8387dae63801ull},
  {"array_loop_10/par-reads", 0xb82533e310bdb136ull, 1282, 0xea57be56042e0a1dull, 0xe9a05a15e38454e1ull, 0x9478219dc830a99aull},
  {"array_loop_10/cover-unified", 0x9c0f02ddd3b58863ull, 1116, 0xd87a4de9a866aa40ull, 0xe9a05a15e38454e1ull, 0xf0c9a721cecf07d6ull},
  {"independent_chains_4x3/default", 0xaf48185c81862a8aull, 3378, 0x7010e6c0592bad15ull, 0xdaba2e2e2f500bc4ull, 0x535407ec7f24a329ull},
  {"independent_chains_4x3/schema1", 0x6f695f913f83b95dull, 3297, 0xc7d336e6fcf14a82ull, 0x813f0174a2367c13ull, 0x19b117f49c2a438cull},
  {"independent_chains_4x3/no-opt", 0xaf48185c81862a8aull, 3378, 0x7010e6c0592bad15ull, 0xdaba2e2e2f500bc4ull, 0x535407ec7f24a329ull},
  {"independent_chains_4x3/mem-elim", 0xf54b8aeccd55b535ull, 1770, 0xac14c33e7b4cade5ull, 0xdaba2e2e2f500bc4ull, 0xd9e6b625f54d769cull},
  {"independent_chains_4x3/dse", 0xaf48185c81862a8aull, 3378, 0x7010e6c0592bad15ull, 0xdaba2e2e2f500bc4ull, 0x8356d67e4861799cull},
  {"independent_chains_4x3/opt-all", 0xaf48185c81862a8aull, 3378, 0x7010e6c0592bad15ull, 0xdaba2e2e2f500bc4ull, 0x4a70fd800b0cc6eaull},
  {"independent_chains_4x3/fanout2", 0xaf48185c81862a8aull, 3378, 0x7010e6c0592bad15ull, 0xdaba2e2e2f500bc4ull, 0x989c1108fd556a48ull},
  {"independent_chains_4x3/par-reads", 0xaf48185c81862a8aull, 3378, 0x7010e6c0592bad15ull, 0xdaba2e2e2f500bc4ull, 0x535407ec7f24a329ull},
  {"independent_chains_4x3/cover-unified", 0x6f695f913f83b95dull, 3297, 0xc7d336e6fcf14a82ull, 0xdaba2e2e2f500bc4ull, 0xba38b099db3e9bcfull},
  {"read_heavy_8/default", 0x3bf2b7e42440f70eull, 2615, 0x405224e917666478ull, 0xf7796aa31c68bb72ull, 0x62afdb512f818e54ull},
  {"read_heavy_8/schema1", 0x05ff17c5a8143d8aull, 2611, 0x7e5f082f15c567aeull, 0x813f0174a2367c13ull, 0x4676b3d9955809c7ull},
  {"read_heavy_8/no-opt", 0x3bf2b7e42440f70eull, 2615, 0x405224e917666478ull, 0xf7796aa31c68bb72ull, 0x62afdb512f818e54ull},
  {"read_heavy_8/mem-elim", 0x66a9803f9228c70aull, 2824, 0xcb2b4573aa1ad4f6ull, 0xf7796aa31c68bb72ull, 0xee07e8a247c302e2ull},
  {"read_heavy_8/dse", 0x3bf2b7e42440f70eull, 2615, 0x405224e917666478ull, 0xf7796aa31c68bb72ull, 0x7af50e63c5be9507ull},
  {"read_heavy_8/opt-all", 0x3bf2b7e42440f70eull, 2615, 0x405224e917666478ull, 0xf7796aa31c68bb72ull, 0x4c8299eb2ae5471bull},
  {"read_heavy_8/fanout2", 0x3bf2b7e42440f70eull, 2615, 0x405224e917666478ull, 0xf7796aa31c68bb72ull, 0x8ffa84b18279294bull},
  {"read_heavy_8/par-reads", 0x3bf2b7e42440f70eull, 2615, 0x405224e917666478ull, 0xf7796aa31c68bb72ull, 0x62afdb512f818e54ull},
  {"read_heavy_8/cover-unified", 0x07f1dcd41e3938a5ull, 2399, 0xbd2872da035aae97ull, 0xf7796aa31c68bb72ull, 0x557f0b6ee9fa3362ull},
  {"irreducible/default", 0x22b1f8d1f9d9da98ull, 3660, 0x0a6e48be7f85238bull, 0x5529abcb1035cf57ull, 0x1300ba5ee5c2228aull},
  {"irreducible/schema1", 0x308cf93780860edeull, 1919, 0x7be685f29ff70d39ull, 0x813f0174a2367c13ull, 0xd69323c229a342f9ull},
  {"irreducible/no-opt", 0x4f2d2dec11dd58abull, 4088, 0xa1870ff108e02b08ull, 0x5529abcb1035cf57ull, 0xeb2e0434d110378dull},
  {"irreducible/mem-elim", 0x09ed47f60622b71bull, 3002, 0x97ca64aebc0b84e6ull, 0x5529abcb1035cf57ull, 0x70e64bbb22fde0f8ull},
  {"irreducible/dse", 0x22b1f8d1f9d9da98ull, 3660, 0x0a6e48be7f85238bull, 0x5529abcb1035cf57ull, 0xfc024790bf5236bbull},
  {"irreducible/opt-all", 0x22b1f8d1f9d9da98ull, 3660, 0x0a6e48be7f85238bull, 0x5529abcb1035cf57ull, 0x906afb11683a6a20ull},
  {"irreducible/fanout2", 0x044446cfcd92ad32ull, 3885, 0x4d8aac6b7fcd9958ull, 0x5529abcb1035cf57ull, 0x9e402ca44331974bull},
  {"irreducible/par-reads", 0x22b1f8d1f9d9da98ull, 3660, 0x0a6e48be7f85238bull, 0x5529abcb1035cf57ull, 0x1300ba5ee5c2228aull},
  {"irreducible/cover-unified", 0x2d0a23fce2a7d3ceull, 2747, 0x6faa4cf6bbb29689ull, 0x5529abcb1035cf57ull, 0xb293aeea2d7490a5ull},
  {"nested_loops_3x4/default", 0x735272087efed2d4ull, 2966, 0x96cabd80a1a2ddc3ull, 0xf1a94df573ff3f98ull, 0xccdca76e6be954adull},
  {"nested_loops_3x4/schema1", 0xfa1a4d327d93fbedull, 2329, 0x0dfb0b886ef41e37ull, 0x813f0174a2367c13ull, 0xac44b1e3d1f271e9ull},
  {"nested_loops_3x4/no-opt", 0x735272087efed2d4ull, 2966, 0x96cabd80a1a2ddc3ull, 0xf1a94df573ff3f98ull, 0xccdca76e6be954adull},
  {"nested_loops_3x4/mem-elim", 0xc31cada49c39a7d7ull, 2463, 0x9724ea233df03fbeull, 0xf1a94df573ff3f98ull, 0xdcaae2aa0e59ab04ull},
  {"nested_loops_3x4/dse", 0x735272087efed2d4ull, 2966, 0x96cabd80a1a2ddc3ull, 0xf1a94df573ff3f98ull, 0x77f3cf23a1e6d994ull},
  {"nested_loops_3x4/opt-all", 0x57d0eb3f8631cc5aull, 2898, 0x5ab44c12c5ec673full, 0xf1a94df573ff3f98ull, 0x789d13c46781662bull},
  {"nested_loops_3x4/fanout2", 0x279bf11b8858b34full, 3116, 0xfd07c7743b4c6fabull, 0xf1a94df573ff3f98ull, 0x6cbe3afc5c3c8f7dull},
  {"nested_loops_3x4/par-reads", 0x735272087efed2d4ull, 2966, 0x96cabd80a1a2ddc3ull, 0xf1a94df573ff3f98ull, 0xccdca76e6be954adull},
  {"nested_loops_3x4/cover-unified", 0x4d5c3318d36f6397ull, 2356, 0x86dc117dec402d3aull, 0xf1a94df573ff3f98ull, 0x629d9aca1cc4462dull},
  {"chain_loop_6x8/default", 0x96357b7bf42a4c46ull, 2083, 0xc13b0bc045166bbaull, 0x2580c056f32bb200ull, 0xcc4bb87bd362190cull},
  {"chain_loop_6x8/schema1", 0x4417b47f12bbb9b5ull, 1846, 0x10e63e2fe175fab3ull, 0x813f0174a2367c13ull, 0xfe4939053f794f9dull},
  {"chain_loop_6x8/no-opt", 0x96357b7bf42a4c46ull, 2083, 0xc13b0bc045166bbaull, 0x2580c056f32bb200ull, 0xcc4bb87bd362190cull},
  {"chain_loop_6x8/mem-elim", 0x8ea13fc9b39e7496ull, 1878, 0xb0e5e6f9c565a99dull, 0x2580c056f32bb200ull, 0xc55d8f6ddb1162dcull},
  {"chain_loop_6x8/dse", 0x96357b7bf42a4c46ull, 2083, 0xc13b0bc045166bbaull, 0x2580c056f32bb200ull, 0x68622894be759f52ull},
  {"chain_loop_6x8/opt-all", 0x6875e91bf7debc7cull, 1607, 0x43a73486b4c0e0cfull, 0x2580c056f32bb200ull, 0xc012df85ea5a1658ull},
  {"chain_loop_6x8/fanout2", 0x96357b7bf42a4c46ull, 2083, 0xc13b0bc045166bbaull, 0x2580c056f32bb200ull, 0x98474943bfa92807ull},
  {"chain_loop_6x8/par-reads", 0x96357b7bf42a4c46ull, 2083, 0xc13b0bc045166bbaull, 0x2580c056f32bb200ull, 0xcc4bb87bd362190cull},
  {"chain_loop_6x8/cover-unified", 0x7e1ca91052132e20ull, 1917, 0x0877b1806c26c475ull, 0x2580c056f32bb200ull, 0x1bd5587c7f965181ull},
  {"wide_fanout/default", 0x0e1bef9cd32c17ceull, 1166, 0xa8a9694f8a9ea16full, 0xae11d871a61ab237ull, 0x9a5f9627847824d2ull},
  {"wide_fanout/schema1", 0xa092673e643a8aacull, 1139, 0x0d0705e5910656c7ull, 0x813f0174a2367c13ull, 0x6b83de88e96b4dfeull},
  {"wide_fanout/no-opt", 0x0e1bef9cd32c17ceull, 1166, 0xa8a9694f8a9ea16full, 0xae11d871a61ab237ull, 0x9a5f9627847824d2ull},
  {"wide_fanout/mem-elim", 0x458999274b5d96baull, 1200, 0xed238d82d463a93bull, 0xae11d871a61ab237ull, 0x009399a4d101e9caull},
  {"wide_fanout/dse", 0x0e1bef9cd32c17ceull, 1166, 0xa8a9694f8a9ea16full, 0xae11d871a61ab237ull, 0x771291af8567fd13ull},
  {"wide_fanout/opt-all", 0x0e1bef9cd32c17ceull, 1166, 0xa8a9694f8a9ea16full, 0xae11d871a61ab237ull, 0xf029f564ee65d3c3ull},
  {"wide_fanout/fanout2", 0x3f164faa2e5bed31ull, 1616, 0xf5b7cfb285f68314ull, 0xae11d871a61ab237ull, 0x119e57f8721dbcd5ull},
  {"wide_fanout/par-reads", 0x0e1bef9cd32c17ceull, 1166, 0xa8a9694f8a9ea16full, 0xae11d871a61ab237ull, 0x9a5f9627847824d2ull},
  {"wide_fanout/cover-unified", 0xa092673e643a8aacull, 1139, 0x0d0705e5910656c7ull, 0xae11d871a61ab237ull, 0x961bb64f16d835f3ull},
  {"cold-1/default", 0xaddc36bde7d651acull, 14696, 0x3939931d804f3a28ull, 0x2c7747713dbf6410ull, 0x50a5706155e5b804ull},
  {"cold-1/mem-elim", 0x91a937ee834d68e1ull, 13913, 0x69be31861159160full, 0x2c7747713dbf6410ull, 0x4af4197b91cd87bfull},
  {"cold-2/default", 0x34f4cf551fa6db1aull, 16107, 0x156c6f07bd033304ull, 0xa71c43d6e6396119ull, 0x5f1774279228cb3cull},
  {"cold-2/mem-elim", 0xff762be8c38f12dfull, 14491, 0x606075027d0343c0ull, 0xa71c43d6e6396119ull, 0xe3545bab41eb4f75ull},
  {"cold-3/default", 0x2b8ac6f48b8626edull, 17442, 0x267ea9e6329acfceull, 0x88bcce13510901deull, 0xd5783dfdf4ee418cull},
  {"cold-3/mem-elim", 0xf52151fb00d134a3ull, 15428, 0x944b6dd7db30a8f7ull, 0x88bcce13510901deull, 0x9b94b56a23ac013dull},
  {"cold-4/default", 0xd7088f8ac29de12cull, 14116, 0x291d9c6c499fd07full, 0xc006a20a4f8527d8ull, 0x648e49d03f45d509ull},
  {"cold-4/mem-elim", 0x36a707fab479fe3aull, 11553, 0xc7c964631a38bee5ull, 0xc006a20a4f8527d8ull, 0x88401ccee55e8919ull},
  {"cold-5/default", 0x791358f2a5073744ull, 15638, 0x7a186fe50bf78480ull, 0x3ca88b80a538d914ull, 0xf68697f2039edf24ull},
  {"cold-5/mem-elim", 0xb62fad0fa95e3cf2ull, 14662, 0x22b16fec621fc242ull, 0x3ca88b80a538d914ull, 0x91fc8a9239bedd29ull},
  {"cold-6/default", 0x4be25ccb3a0db626ull, 11304, 0xca51791a9a1df180ull, 0x073ee2f6ec6f5d6eull, 0x70b52170082e11a0ull},
  {"cold-6/mem-elim", 0x66d0c3cc90b071e6ull, 10862, 0x2c920b4e31e51b82ull, 0x073ee2f6ec6f5d6eull, 0xc6ce6264d641bfd4ull},
  {"cold-7/default", 0x4ba60c92a8ebec61ull, 14548, 0xd4db160eec5b4134ull, 0x322d0c7c422ca89eull, 0x270f7f7033f681e6ull},
  {"cold-7/mem-elim", 0x97f8f3df2a9ca7fcull, 13559, 0x863980de8d874295ull, 0x322d0c7c422ca89eull, 0xdfe15aa9d0cc70beull},
  {"cold-8/default", 0x8e74c4e7e2c1f07aull, 16728, 0x747ab4234c9b32a0ull, 0x4872b327b4307628ull, 0x2b4fd02328d8d8f8ull},
  {"cold-8/mem-elim", 0x4ab4c8b9d1574447ull, 16442, 0x4ec9b6ab8b89d812ull, 0x4872b327b4307628ull, 0x84b88d0ca979d0eaull},
  {"cold-9/default", 0x6ef914c4301879aeull, 9881, 0xdd7885670e200fa6ull, 0x48fa7cd8fe6733f2ull, 0xea194044a3a0b051ull},
  {"cold-9/mem-elim", 0x304e7a67c693cf01ull, 9150, 0x5b83df8eb1ea5f03ull, 0x48fa7cd8fe6733f2ull, 0xaea1002cfc027745ull},
  {"cold-10/default", 0x53d4055e22658d9eull, 9653, 0x991d6d58df5e703bull, 0x94a7ffeff3ee2c95ull, 0xaa41199ed9e5a9d0ull},
  {"cold-10/mem-elim", 0x5076fda327e06e03ull, 8827, 0xa8d24779175b8582ull, 0x94a7ffeff3ee2c95ull, 0xf304e541b27055d3ull},
  {"cold-11/default", 0xe47c76eb377ede49ull, 10308, 0x65e39f82dc614032ull, 0x89ff39b973e1683eull, 0x089d1037685a7d55ull},
  {"cold-11/mem-elim", 0xe851bf4c29d2df25ull, 9165, 0xfdd758fc3dd6d264ull, 0x89ff39b973e1683eull, 0x4817c8d0c5a10c2dull},
  {"cold-12/default", 0x348e1f7912cb3dcbull, 14215, 0x1df03bb3d9b5249eull, 0x4e7f61c11568a69eull, 0xeb9d33d582202b50ull},
  {"cold-12/mem-elim", 0x3e346030f512dd34ull, 13433, 0x1ed610a9b230f0fbull, 0x4e7f61c11568a69eull, 0x71920e10b02a7cc7ull},
  {"cold-13/default", 0xc808960a2c9a2358ull, 12315, 0xd65272f81202b31bull, 0xf67751ac0a0d5016ull, 0x8b795087a12ee030ull},
  {"cold-13/mem-elim", 0xc716c122da67e8a8ull, 12016, 0xce6c503e16125f68ull, 0xf67751ac0a0d5016ull, 0xcb20028fe756c779ull},
  {"cold-14/default", 0xaa029a44be34568cull, 15143, 0xe7c3f229b0cdd3c7ull, 0x007afea35c82a3a9ull, 0x32537705313c184eull},
  {"cold-14/mem-elim", 0x056639807138dbbbull, 13619, 0x9d61b1b10642c32eull, 0x007afea35c82a3a9ull, 0x819bfaac32ec6a94ull},
  {"cold-15/default", 0xed20103c493cddd5ull, 14611, 0x560c10712819a3ccull, 0xabff542e02a8b543ull, 0xc1a847ab161e8e18ull},
  {"cold-15/mem-elim", 0xddd8c724ed3c6537ull, 14247, 0x7e79cf55f44f135aull, 0xabff542e02a8b543ull, 0xa89021d09b874637ull},
  {"cold-16/default", 0x02313f4c65b824e5ull, 6152, 0x58b5036a50fe4d24ull, 0x2d04b01abd3e68acull, 0x7cd188023ec12438ull},
  {"cold-16/mem-elim", 0xc058d7f3a76c7e9bull, 5856, 0xce4966d6e1c9942dull, 0x2d04b01abd3e68acull, 0xbc8ce6b952ab06f8ull},
  {"cold-17/default", 0xe4453e59cbe2973aull, 15900, 0xd532b075099be214ull, 0xc0051945f4150919ull, 0x2e5869e10e21de94ull},
  {"cold-17/mem-elim", 0xcce0ff0b6c9c7d26ull, 13786, 0xb864bd511f5abcbdull, 0xc0051945f4150919ull, 0x0bb7e023a0bc98efull},
  {"cold-18/default", 0x71c3a95e1d3af340ull, 13977, 0xf11a0e6f197fb914ull, 0x744f95a45800aa74ull, 0x710d63c2229afb18ull},
  {"cold-18/mem-elim", 0xe03d953f98ef1896ull, 13061, 0x52a8eeb0ba58e864ull, 0x744f95a45800aa74ull, 0x8dcceabb57fd69bfull},
  {"cold-19/default", 0xe5599f2a4831dd75ull, 11041, 0xa8ae880d9fc1ea92ull, 0xaa9f210a31adfd47ull, 0x636a4d2c6a6df5ceull},
  {"cold-19/mem-elim", 0x5417a7d6bee7edbcull, 10706, 0x87ebe0f00927ed9cull, 0xaa9f210a31adfd47ull, 0x3fb0cbacd65988ddull},
  {"cold-20/default", 0xeb3035f0b8367280ull, 11930, 0x1ac6f3df2430063eull, 0x7d2f69e8c01949cfull, 0x7621bb5afddfd20cull},
  {"cold-20/mem-elim", 0x3295242acab44bdcull, 10838, 0xef95a5833c55c06full, 0x7d2f69e8c01949cfull, 0xabf86cf6d1f41d85ull},
  {"cold-21/default", 0x5a8792065f6d7b74ull, 12950, 0xf28b453bf4e9cb7aull, 0xe2bfc881579788d7ull, 0xeb3211f8105c8bc9ull},
  {"cold-21/mem-elim", 0xdfc014ce9939d0cfull, 11926, 0xe5eca55e6e37fb4eull, 0xe2bfc881579788d7ull, 0x6c649c7258b87aaeull},
  {"cold-22/default", 0x8445e27c51326377ull, 10707, 0x4c724efd2775f4aaull, 0xb0a2cbd3ae46f4aaull, 0xe7afb4642f59476eull},
  {"cold-22/mem-elim", 0x0e6c71ac42fec998ull, 10187, 0x9a410ef91e2f14bcull, 0xb0a2cbd3ae46f4aaull, 0x37c76dc43c83f70cull},
  {"cold-23/default", 0x0bdc4d2c7f26e290ull, 21108, 0x48e43d9a850e78afull, 0x7176532c4230c150ull, 0x2810b90314d8751bull},
  {"cold-23/mem-elim", 0x09429d4bb2b18fbeull, 19947, 0x9779ba9dde5b6dbeull, 0x7176532c4230c150ull, 0xd244407e6e6ae600ull},
  {"cold-24/default", 0x8fbf869566dd8c23ull, 7613, 0x442ce93562b2208full, 0x19eb0425122a90f2ull, 0x7d0bb9b6c49a104aull},
  {"cold-24/mem-elim", 0x19c47efa65045e20ull, 7001, 0x3dc520c6710d4f59ull, 0x19eb0425122a90f2ull, 0x60bae4848ab7a600ull},
  {"cold-25/default", 0xdeac7b4bc1ca6321ull, 6884, 0x2416251eba9052b2ull, 0x71e59757897a8404ull, 0x27e090b958768b62ull},
  {"cold-25/mem-elim", 0xf7954fe4db334cd0ull, 6619, 0x578f7a026e19740aull, 0x71e59757897a8404ull, 0x82dbb3339c5f12edull},
  {"cold-26/default", 0xcf2f58a58e5ff451ull, 14416, 0x7c5e6002599a6987ull, 0x146b12e48101e456ull, 0x8b135febd8348e05ull},
  {"cold-26/mem-elim", 0xc7aaa57d6adb10c8ull, 13667, 0x2679ebd791423990ull, 0x146b12e48101e456ull, 0xd7ebaaeac90caa69ull},
  {"cold-27/default", 0xafa465d006f42a01ull, 16036, 0x0c4024e2954dba33ull, 0x20f46a5029d97ae3ull, 0xd93bcf331ed082cfull},
  {"cold-27/mem-elim", 0x69e4c19f792dd0b5ull, 15446, 0x30dae0cb92770a90ull, 0x20f46a5029d97ae3ull, 0x447b30a4407debe2ull},
  {"cold-28/default", 0x7416404e21718032ull, 14663, 0xb02e0176d3ed578dull, 0xf12cb0e3f5f2ce05ull, 0xd9bdf70322d1fca6ull},
  {"cold-28/mem-elim", 0x936aa771dfcb127aull, 14369, 0x8e0c44f5098908f1ull, 0xf12cb0e3f5f2ce05ull, 0xe96acb21af95639dull},
  {"cold-29/default", 0x17a12f2fc70b0fedull, 13308, 0x73decb17475ac440ull, 0x14b76841ff5b84c6ull, 0xfbcfc628d472e0a9ull},
  {"cold-29/mem-elim", 0xeba2394c1472ea25ull, 12866, 0xa30daa600b797e47ull, 0x14b76841ff5b84c6ull, 0xda7069a19013270dull},
  {"cold-30/default", 0x7c75d7840a356958ull, 17782, 0xb49ee4262aa08ebeull, 0x8a00c5e875d81182ull, 0xda09f0a0c51940ccull},
  {"cold-30/mem-elim", 0x9e9699b00952a8bbull, 16786, 0x60fb650f72847d9full, 0x8a00c5e875d81182ull, 0x56dd2b4429de79a8ull},
  {"cold-31/default", 0xb438c7261b22a02eull, 15099, 0x4aaefccfb9bb7ca4ull, 0xf054eb827cdb3a0bull, 0x124c1cdc722a52acull},
  {"cold-31/mem-elim", 0xa6d19e2ad7c348f6ull, 13925, 0x5ca9f147b1f7bab7ull, 0xf054eb827cdb3a0bull, 0x527e5e8da19c8e27ull},
  {"cold-32/default", 0xa8ce0fb85d9cf6c7ull, 11686, 0x0d80b76b94548329ull, 0x7603aa44ebcde2f6ull, 0xfd99c6094d5f3d5cull},
  {"cold-32/mem-elim", 0xd58580322a12fcd4ull, 11387, 0xcd9ac495f157ee16ull, 0x7603aa44ebcde2f6ull, 0x60cdc29eb2f10033ull},
  {"cold-33/default", 0xd6f2d38e6de2e827ull, 4925, 0xbe50d548f5ba8449ull, 0x740354cca97c33e7ull, 0x9fc7b1fc178b2362ull},
  {"cold-33/mem-elim", 0x43a2aa0c6c4e3f45ull, 4725, 0x9efb7fd48eb8f822ull, 0x740354cca97c33e7ull, 0xb5a70e5d8c750907ull},
  {"cold-34/default", 0x47c58a4262a78408ull, 18313, 0x1afab7fb931930d3ull, 0xf0e17af00e2f179full, 0x7e50f0bc157c9c28ull},
  {"cold-34/mem-elim", 0xc50c8ee31c453be6ull, 17416, 0x2d717081830d6aeeull, 0xf0e17af00e2f179full, 0xebaa331aac7298bbull},
  {"cold-35/default", 0xf4f792a40fea504full, 13269, 0x1d7d9fe1993095e5ull, 0x64132a70094e1109ull, 0x7cec41e73a1fc956ull},
  {"cold-35/mem-elim", 0x0cb154e881725c3eull, 12699, 0x93649246b3b6e637ull, 0x64132a70094e1109ull, 0x0185858a019d8481ull},
  {"cold-36/default", 0x1c0c45f1ce5cc156ull, 13931, 0xc4b1b7aa96a22604ull, 0x244c382bfa219216ull, 0x13dfe249dbf926f3ull},
  {"cold-36/mem-elim", 0xd295fbddd8f5cf4cull, 13561, 0x3da7d8b8e5e85059ull, 0x244c382bfa219216ull, 0xd6ea542a2b6d5b40ull},
  {"cold-37/default", 0xb3cac77f9324a4fcull, 21160, 0x51525d08633bcd2cull, 0x7ca8545aa8806026ull, 0xcf012a251ae41704ull},
  {"cold-37/mem-elim", 0xfca68f4bac3e795eull, 19907, 0xbe94b321a44c3519ull, 0x7ca8545aa8806026ull, 0xdb247d838ce13f97ull},
  {"cold-38/default", 0x395d46ce6e15e9aaull, 10452, 0x690848aeda1442f5ull, 0x46bc385e747de408ull, 0x9b5d274c363ac3c0ull},
  {"cold-38/mem-elim", 0xbf7373b21778e2e0ull, 9862, 0x24068be71f37bce0ull, 0x46bc385e747de408ull, 0x3c14a4a354ca4404ull},
  {"cold-39/default", 0xf4cdb54de091eb89ull, 23555, 0x907fe85c6410895dull, 0xecb4fef1416da54full, 0xc564ae3acc353890ull},
  {"cold-39/mem-elim", 0x744397f3d8ff1a1cull, 22879, 0x2562336c7e5bb18dull, 0xecb4fef1416da54full, 0xf9e057856b97c618ull},
  {"cold-40/default", 0x2e3a217586e23bf5ull, 7475, 0x1f5ac9b1edd8b6fcull, 0x1e9beebcd957dd3aull, 0x0b9561b367a96e88ull},
  {"cold-40/mem-elim", 0x15a82d39317e95b7ull, 6829, 0x1b24340c6c5e4c48ull, 0x1e9beebcd957dd3aull, 0x6928df0b1881a0d7ull},
  {"cold-41/default", 0x3de3174fd802dd71ull, 8596, 0xda1b4b04215e4076ull, 0x92294a6063c0b2f8ull, 0xcacc6c4283c10655ull},
  {"cold-41/mem-elim", 0xa9c7673d6c422a2bull, 8103, 0x5800ea1360b17bd7ull, 0x92294a6063c0b2f8ull, 0xf60b76c632fefa59ull},
  {"cold-42/default", 0x6b6c198d23836b8bull, 16776, 0xcd2ac3c427589c72ull, 0x569e0e6d0ccf86bbull, 0xd4dda701ee62558aull},
  {"cold-42/mem-elim", 0xf88123cb9727b8d0ull, 16167, 0x7e912aee5eb01983ull, 0x569e0e6d0ccf86bbull, 0x5b6dbb7af7de9c4aull},
  {"cold-43/default", 0x14b648dbea035a48ull, 7576, 0x369183e61f8e84a5ull, 0xa3399a938cb48dbdull, 0x99c5b4c54b3f710eull},
  {"cold-43/mem-elim", 0x51a552fde34cb719ull, 7512, 0x11bfb1ff5765843dull, 0xa3399a938cb48dbdull, 0x1829d69f11430b8dull},
  {"cold-44/default", 0xcb640c6a5f0c76a3ull, 13232, 0x064d800d5fb956fbull, 0x34d69a31a04fa42full, 0xf77e98acfb0928fbull},
  {"cold-44/mem-elim", 0xa4f0aee5872ff443ull, 12363, 0x33266ef7ab578ecdull, 0x34d69a31a04fa42full, 0x6101cc3b7de646d2ull},
  {"cold-45/default", 0x6f1ddc3061994338ull, 10989, 0x6c8cfb15f86ab35eull, 0x14ffaf0c4f2336cfull, 0xe54af5042534c6a8ull},
  {"cold-45/mem-elim", 0x1062f98d6254266bull, 10482, 0x618453b3489205d4ull, 0x14ffaf0c4f2336cfull, 0x6a1a82cc5b986077ull},
  {"cold-46/default", 0x82c0c6212ca4f4f3ull, 19512, 0xaa920aadc731d3c5ull, 0x4ef173db712f322aull, 0xdceb4a16936fbd2dull},
  {"cold-46/mem-elim", 0x7b9c5397f2cf4663ull, 19226, 0xcd3d82e409b0b096ull, 0x4ef173db712f322aull, 0x057dc0ff6f478971ull},
  {"cold-47/default", 0x98a4bb729212148bull, 15525, 0xb4f25073752b48f8ull, 0x0ef4b21194697a3bull, 0x9cd9e95f4e1f76ceull},
  {"cold-47/mem-elim", 0x754608fbc2f87ba4ull, 13864, 0x3bca5710063ce854ull, 0x0ef4b21194697a3bull, 0x4fc378d8df805930ull},
  {"cold-48/default", 0x044fe441f88af821ull, 13021, 0x8ebf16b32181c415ull, 0xec017638ec4fdad2ull, 0xc4230e6cc5bea5beull},
  {"cold-48/mem-elim", 0xd8b0ec558da5a285ull, 10644, 0xe8c1d697b90f12feull, 0xec017638ec4fdad2ull, 0xba47d66f75d0910dull},
  {"cold-49/default", 0xa6916e170c47bc28ull, 14989, 0x7e5f1fd87844405dull, 0xdec0e3b090481bf1ull, 0x4b201bb9cb17a74full},
  {"cold-49/mem-elim", 0x69a23ba1e9e3184aull, 13513, 0x3e42d4ebf98aed04ull, 0xdec0e3b090481bf1ull, 0x25ce765f1c12f37cull},
  {"cold-50/default", 0xe21c72c3de9bf7efull, 13690, 0x4e20e3b9ea491ef8ull, 0x1bf9be1a7b5471adull, 0xde70276e4908cfefull},
  {"cold-50/mem-elim", 0xba2b3e638a7f6046ull, 12807, 0xc08a4aec46b2c047ull, 0x1bf9be1a7b5471adull, 0xf761eb02237c4485ull},
  {"cold-51/default", 0xeda495f13df55069ull, 10873, 0xf4254c5c730bac78ull, 0xa0253dd9e20a3198ull, 0x6d45c2719db0b388ull},
  {"cold-51/mem-elim", 0x0ba6e8d5380e5d7dull, 9993, 0x418104c7c3528d1bull, 0xa0253dd9e20a3198ull, 0x1ee76944d015123full},
  {"cold-52/default", 0xbcd9fdc8dc6d8209ull, 10841, 0x4b02de723a376ddfull, 0x10e427b1a43883c0ull, 0x8941b941cf4a7a06ull},
  {"cold-52/mem-elim", 0xe082ff6ee1171565ull, 9971, 0x6f31c9ce04d11c4eull, 0x10e427b1a43883c0ull, 0x93f88f23ca99c626ull},
  {"cold-53/default", 0x63ffba5a226a6e40ull, 19255, 0x033a7bcdd5fb6e77ull, 0x8259a4d2e6dca16eull, 0x97ce3d3208e9182cull},
  {"cold-53/mem-elim", 0x2eb83fa60c3655edull, 18358, 0x100f2aae0e563818ull, 0x8259a4d2e6dca16eull, 0x87a9e8abdabb1029ull},
  {"cold-54/default", 0x0d96e269fe05b051ull, 8709, 0x7353335cfd651ac9ull, 0x3c2e1b393afb7e41ull, 0x1d27c754102a8683ull},
  {"cold-54/mem-elim", 0x09f152f8bf194aaaull, 8231, 0x87f7c7443c03607aull, 0x3c2e1b393afb7e41ull, 0xb7a0898dd9db77efull},
  {"cold-55/default", 0x80ff422bb2b5c8d8ull, 9790, 0x950affa3bb532a6full, 0xfff33d60b506f364ull, 0x2376da70848df4fbull},
  {"cold-55/mem-elim", 0x74836df6df41e5cbull, 8549, 0x8a6efd01196521f7ull, 0xfff33d60b506f364ull, 0x7fb0aab7315bef34ull},
  {"cold-56/default", 0xa7dcfe775ae495c0ull, 10916, 0x46e7fbcca1fe0871ull, 0x5a5e1277560043c6ull, 0xef87cfa5e3229778ull},
  {"cold-56/mem-elim", 0x1cfcec3024bacd69ull, 10208, 0x02f2d5ecbdb1d5ddull, 0x5a5e1277560043c6ull, 0x98f9679cab5bae94ull},
  {"cold-57/default", 0x768673201d55e649ull, 6976, 0x315730a7a2fa14fdull, 0x0e21541bc29d9764ull, 0x65241fe0c8e50ca1ull},
  {"cold-57/mem-elim", 0x28fa58b2785209b6ull, 6407, 0xf898fdf916df8324ull, 0x0e21541bc29d9764ull, 0x70d5f38d0cd64b13ull},
  {"cold-58/default", 0x327a721535124442ull, 17239, 0xcb1433b3063c7350ull, 0x16586f99a00d92b8ull, 0x7e4015547eb72a90ull},
  {"cold-58/mem-elim", 0xc8e2877cc7c7bd8eull, 16036, 0x51382b35ca4af165ull, 0x16586f99a00d92b8ull, 0x4d29595d11d51d60ull},
  {"cold-59/default", 0xf64f473d47962f62ull, 10641, 0x77d212fdec0ef4caull, 0x023a7872dd3cf5d8ull, 0xa1e8b9d29208c73full},
  {"cold-59/mem-elim", 0x7c5318ae42c26912ull, 10445, 0xe12bfb38d9e218c2ull, 0x023a7872dd3cf5d8ull, 0xe817e6d48d92b313ull},
  {"cold-60/default", 0xf3bdd10f622057d1ull, 12016, 0x712846431c094876ull, 0xad0d5a6c423ae9f1ull, 0x57058d4947c7fd9dull},
  {"cold-60/mem-elim", 0xfcbbfc95c990d9e0ull, 11196, 0x8fe742ae4478dcf9ull, 0xad0d5a6c423ae9f1ull, 0x2c559f895ed71238ull},
  {"cold-61/default", 0xb24610a17e2b6066ull, 10726, 0x2ee9747ce8ebcd2aull, 0xa7f955161e4fa642ull, 0x7e1506e79a5eaf7bull},
  {"cold-61/mem-elim", 0xc74cb7acbda4e3c9ull, 9758, 0x8a1b6cb9aa5a9e29ull, 0xa7f955161e4fa642ull, 0xa5e55256eb885435ull},
  {"cold-62/default", 0xa5eea2b02f31f24bull, 12120, 0x47650adc57ba09a5ull, 0x8e1f7a6df94cb22bull, 0x5f0f876a397d8601ull},
  {"cold-62/mem-elim", 0xe45b5d68051937f2ull, 11438, 0xdd10aa05a2e6aaaeull, 0x8e1f7a6df94cb22bull, 0x3297d148548d5c6eull},
  {"cold-63/default", 0xfc91464bd960392dull, 10037, 0xb907242d49809920ull, 0x23c38f573f9fef59ull, 0x70b0cc145f551a66ull},
  {"cold-63/mem-elim", 0x37e78d1ecc7eccb7ull, 8263, 0xb4ab1d97f37551b5ull, 0x23c38f573f9fef59ull, 0x6befac6dbba75deeull},
  {"cold-64/default", 0xc2eefc0deddd9010ull, 7956, 0x796ae041633d37baull, 0x3a99594f9bd7db4eull, 0xfddc99ed70959c2dull},
  {"cold-64/mem-elim", 0x5c6991eea6998e8eull, 7514, 0x9a3aca5214697af5ull, 0x3a99594f9bd7db4eull, 0xbac0a3420d3825cdull},
};
// clang-format on

/// A load whose value feeds eight operands: under --max-fanout=2 its
/// port needs a replicate tree two levels deep.
constexpr const char* kWideFanout =
    "var x, y;\nx := 3;\ny := x * x + x * x + x * x + x * x;\n";

const std::vector<std::pair<const char*, std::vector<const char*>>>
    kFlagSets = {
        {"default", {}},
        {"schema1", {"--schema1"}},
        {"no-opt", {"--no-opt"}},
        {"mem-elim", {"--mem-elim"}},
        {"dse", {"--dse"}},
        {"opt-all", {"--opt=all"}},
        {"fanout2", {"--max-fanout=2"}},
        {"par-reads", {"--par-reads"}},
        {"cover-unified", {"--cover=unified"}},
};

std::uint64_t fnv(const std::string& s) {
  support::Fnv1a64 h;
  h.update_string(s);
  return h.digest();
}

Golden row_of(const char* row, const std::string& source,
              const std::vector<const char*>& flags) {
  translate::TranslateOptions topt =
      translate::TranslateOptions::schema2_optimized();
  for (const char* f : flags)
    EXPECT_EQ(translate::apply_schema_flag(topt, f),
              translate::SchemaFlagParse::kApplied)
        << f;
  PipelineOptions po(topt);
  po.dump_after = Stage::kLoopTransform;
  CompileResult cr = Pipeline(po).run(source);
  Golden g{row, 0, 0, 0, 0, 0};
  g.dot_hash = fnv(cr.translation.graph.to_dot());
  g.loops_hash = fnv(cr.dump);
  g.summary_hash = fnv(cr.trace.summary());
  const std::vector<std::uint8_t> blob =
      machine::serialize(make_program_image(std::move(cr)));
  g.blob_hash = machine::blob_content_hash(blob);
  g.blob_bytes = blob.size();
  return g;
}

std::string render(const Golden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", 0x%016" PRIx64 "ull, %" PRIu64 ", 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},",
                g.row, g.blob_hash, g.blob_bytes, g.dot_hash, g.loops_hash,
                g.summary_hash);
  return buf;
}

TEST(GoldenImages, CompiledOutputMatchesTheRecordedTable) {
  std::map<std::string, const Golden*> table;
  for (const Golden& g : kGolden) table[g.row] = &g;

  struct Run {
    std::string row;
    std::string source;
    std::vector<const char*> flags;
  };
  std::vector<Run> runs;
  std::vector<lang::corpus::NamedProgram> programs = lang::corpus::all();
  programs.push_back({"wide_fanout", kWideFanout});
  for (const auto& np : programs)
    for (const auto& [fname, flags] : kFlagSets)
      runs.push_back({np.name + "/" + fname, np.source, flags});
  const std::vector<std::string> cold = testing::serve_cold_sources(64);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    const std::string name = "cold-" + std::to_string(i + 1);
    runs.push_back({name + "/default", cold[i], {}});
    runs.push_back({name + "/mem-elim", cold[i], {"--mem-elim"}});
  }

  std::ostringstream mismatched;
  for (const Run& run : runs) {
    const Golden actual = row_of(run.row.c_str(), run.source, run.flags);
    const auto it = table.find(run.row);
    if (it == table.end() || render(*it->second) != render(actual))
      mismatched << "  " << render(actual) << "\n";
  }
  EXPECT_EQ(runs.size(), std::size(kGolden)) << "the table has stale rows";
  EXPECT_TRUE(mismatched.str().empty())
      << "compiles whose output differs from the table (actual rows):\n"
      << mismatched.str();
}

}  // namespace
}  // namespace ctdf::core
