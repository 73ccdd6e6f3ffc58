/// \file test_modeled_clock.cpp
/// Pins the simulator's modeled clock. A sweep of SimTitanXp multiplies at
/// one scheduler thread — the differential generator zoo, in float and
/// double, under nine Configs that drive restarts, carries, pointer chunks
/// and every merge case — is compared field for field against a table of
/// recorded values: every `sim::MetricCounters` field, `sim_time_s` and
/// each stage time as exact doubles (hexfloat), the multiprocessor load,
/// the restart, denial, iteration, chunk, pool and merge counts, and a
/// hash of C.
///
/// The cost model turns block counters into time through a list schedule,
/// so one miscounted charge in one block moves the pinned stage times even
/// where the aggregate counters happen to agree. Equal rows mean the
/// paper's tables (Table 1, Figs. 5–8) cannot have moved either.
///
/// On a mismatch the test prints each differing row as it should read in
/// the table below; a deliberate change to the cost accounting replaces
/// the table with that output.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/acspgemm.hpp"
#include "matrix/generators.hpp"
#include "trace/trace.hpp"

namespace acs {
namespace {

// Printed by the test itself (as_table_entry below); kept as printed.
// clang-format off
const char* const kPinned[] = {
    "uniform/float/default gc=359892 gs=64688 so=67170 sp=53963 se=23944 "
    "hp=0 at=334 fl=21380 co=0 t=0x1.97ddfdf41dae4p-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.d400ab927caaap-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.20d25344436d5p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3c6ff38c0ab86p-17 mpl=0x1p+0 r=0 pd=0 it=7 ch=8 pu=84120 lr=0 "
    "mr=5 c=e6ca2bd6ef1eb155",
    "uniform/float/static_bits gc=359892 gs=64688 so=67170 sp=53963 "
    "se=23944 hp=0 at=334 fl=21380 co=0 t=0x1.97ddfdf41dae4p-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.d400ab927caaap-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.20d25344436d5p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3c6ff38c0ab86p-17 mpl=0x1p+0 r=0 pd=0 it=7 ch=8 pu=84120 lr=0 "
    "mr=5 c=e6ca2bd6ef1eb155",
    "uniform/float/retain0 gc=359892 gs=64688 so=67170 sp=53963 se=23944 "
    "hp=0 at=334 fl=21380 co=0 t=0x1.97ddfdf41dae4p-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.d400ab927caaap-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.20d25344436d5p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3c6ff38c0ab86p-17 mpl=0x1p+0 r=0 pd=0 it=7 ch=8 pu=84120 lr=0 "
    "mr=5 c=e6ca2bd6ef1eb155",
    "uniform/float/npb64 gc=369592 gs=65648 so=68796 sp=45584 se=24494 hp=0 "
    "at=427 fl=21380 co=0 t=0x1.75739fd25065cp-15 GLB=0x1.17b5819dcfff1p-17 "
    "ESC=0x1.46bae0e2a56dp-17 MCC=0x1.16cbd5c06cd25p-17 "
    "MM=0x1.3f9a9bd81799p-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.20f7ab3047bfep-17 "
    "mpl=0x1p+0 r=0 pd=0 it=28 ch=29 pu=89192 lr=0 mr=20 c=e6ca2bd6ef1eb155",
    "uniform/float/npb32_pm2 gc=384988 gs=67248 so=71407 sp=49028 se=25380 "
    "hp=0 at=561 fl=21380 co=0 t=0x1.7af1ee8074ca7p-15 "
    "GLB=0x1.17cfe378df52ap-17 ESC=0x1.2ef8abbc38186p-17 "
    "MCC=0x1.172a0eaa35d7fp-17 MM=0x1.7201417fda8c1p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1bd3daa2ab5adp-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=57 pu=97176 lr=0 "
    "mr=45 c=e6ca2bd6ef1eb155",
    "uniform/float/lrt7 gc=477628 gs=261904 so=67734 sp=635370 se=76620 "
    "hp=0 at=3716 fl=21380 co=0 t=0x1.0b42035fca67cp-14 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.b841b07d118a1p-17 "
    "MCC=0x1.187b5f88c2f17p-17 MM=0x1.7e37cf1bfc772p-17 "
    "PM=0x1.b90c04469defp-17 SM=0x0p+0 CC=0x1.3a6d7f5c5fdbfp-17 "
    "mpl=0x1.808104c348d82p-1 r=0 pd=0 it=7 ch=839 pu=160768 lr=627 mr=269 "
    "c=4204761935c65c00",
    "uniform/float/no_long_rows gc=359892 gs=64688 so=67170 sp=53963 "
    "se=23944 hp=0 at=334 fl=21380 co=0 t=0x1.97ddfdf41dae4p-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.d400ab927caaap-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.20d25344436d5p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3c6ff38c0ab86p-17 mpl=0x1p+0 r=0 pd=0 it=7 ch=8 pu=84120 lr=0 "
    "mr=5 c=e6ca2bd6ef1eb155",
    "uniform/float/pool16k gc=468164 gs=128912 so=113557 sp=107478 se=47134 "
    "hp=0 at=334 fl=42786 co=0 t=0x1.408f6b007995fp-14 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.d38231443072fp-17 "
    "ESC=0x1.d400ab927caaap-17 ESC=0x1.d1812eef25834p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.20d25344436d5p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3c6ff38c0ab86p-17 mpl=0x1p+0 r=2 pd=7 it=14 ch=8 pu=84120 lr=0 "
    "mr=5 c=e6ca2bd6ef1eb155",
    "uniform/float/ept4_retain2 gc=360116 gs=64880 so=69154 sp=51197 "
    "se=24133 hp=0 at=355 fl=21380 co=0 t=0x1.939fe42fd55ccp-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.d4bbe3d3a8838p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.20d25344436d5p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2abc5439bd993p-17 mpl=0x1p+0 r=0 pd=0 it=14 ch=15 pu=84344 lr=0 "
    "mr=5 c=e6ca2bd6ef1eb155",
    "local/float/default gc=497720 gs=88044 so=111429 sp=79709 se=42862 "
    "hp=0 at=368 fl=39360 co=0 t=0x1.976c9a71d09c3p-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.db0f8a48e89d8p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.26ab03eed2f47p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2db878d4f05e4p-17 mpl=0x1p+0 r=0 pd=0 it=17 ch=18 pu=104144 "
    "lr=0 mr=7 c=c46aa5ae15276818",
    "local/float/static_bits gc=497720 gs=88044 so=111429 sp=100096 "
    "se=42862 hp=0 at=368 fl=39360 co=0 t=0x1.976c9a71d09c3p-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.db0f8a48e89d8p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.26ab03eed2f47p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2db878d4f05e4p-17 mpl=0x1p+0 r=0 pd=0 it=17 ch=18 pu=104144 "
    "lr=0 mr=7 c=c46aa5ae15276818",
    "local/float/retain0 gc=501744 gs=90476 so=112009 sp=86020 se=43475 "
    "hp=0 at=386 fl=39360 co=0 t=0x1.e8158c142ca65p-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.db3572eea5f3ap-17 "
    "MCC=0x1.16adaf0f36bcp-17 MM=0x1.2e3d37a89bdap-17 "
    "PM=0x1.378767f2c8627p-17 SM=0x0p+0 CC=0x1.3109e2dd501a7p-17 mpl=0x1p+0 "
    "r=0 pd=0 it=17 ch=20 pu=106192 lr=0 mr=12 c=377fa8469a9a4f66",
    "local/float/npb64 gc=514260 gs=89036 so=112374 sp=80248 se=43689 hp=0 "
    "at=469 fl=39360 co=0 t=0x1.7b915e14d6749p-15 GLB=0x1.17beedb530e61p-17 "
    "ESC=0x1.47e5d88b01bbbp-17 MCC=0x1.16e272c55563p-17 "
    "MM=0x1.57b6d871b10f6p-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.200766dc20be3p-17 "
    "mpl=0x1p+0 r=0 pd=0 it=38 ch=39 pu=112600 lr=0 mr=26 "
    "c=e5e90a33765d81d6",
    "local/float/npb32_pm2 gc=543544 gs=91148 so=117488 sp=70912 se=45414 "
    "hp=0 at=652 fl=39360 co=0 t=0x1.8a194160571d6p-15 "
    "GLB=0x1.17e2bba7a1209p-17 ESC=0x1.51ee488e8e7fap-17 "
    "MCC=0x1.175ed260547fp-17 MM=0x1.7d1d45af75aebp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2a17e93b62a79p-17 mpl=0x1p+0 r=0 pd=0 it=76 ch=78 pu=127648 "
    "lr=0 mr=59 c=13c79c7be98cbe36",
    "local/float/lrt7 gc=633212 gs=438924 so=58928 sp=600382 se=102957 hp=0 "
    "at=10043 fl=39360 co=852992 t=0x1.05be62d92a033p-14 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.98c79bbf726c8p-17 "
    "MCC=0x1.18b5ca801bbcap-17 MM=0x0p+0 PM=0x1.b9bc07603352cp-17 "
    "SM=0x1.661f72047c9d4p-17 CC=0x1.44f5ab4af06ddp-17 "
    "mpl=0x1.80aaed7bd5e96p-1 r=0 pd=0 it=10 ch=2469 pu=227532 lr=2159 "
    "mr=300 c=671912c94e3ba31b",
    "local/float/no_long_rows gc=497720 gs=88044 so=111429 sp=79709 "
    "se=42862 hp=0 at=368 fl=39360 co=0 t=0x1.976c9a71d09c3p-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.db0f8a48e89d8p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.26ab03eed2f47p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2db878d4f05e4p-17 mpl=0x1p+0 r=0 pd=0 it=17 ch=18 pu=104144 "
    "lr=0 mr=7 c=c46aa5ae15276818",
    "local/float/pool16k gc=692896 gs=178380 so=198127 sp=161277 se=86206 "
    "hp=0 at=368 fl=80144 co=0 t=0x1.41f9a0d1462cep-14 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.d79e0f19ee05ep-17 "
    "ESC=0x1.da7c8da900f0cp-17 ESC=0x1.db0f8a48e89d8p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.26ab03eed2f47p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2db878d4f05e4p-17 mpl=0x1p+0 r=2 pd=10 it=27 ch=18 pu=104144 "
    "lr=0 mr=7 c=c46aa5ae15276818",
    "local/float/ept4_retain2 gc=498040 gs=88300 so=114273 sp=80622 "
    "se=43136 hp=0 at=398 fl=39360 co=0 t=0x1.951fe0f2d3847p-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.db5227c53c1d2p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.26ab03eed2f47p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2442f55ca87f8p-17 mpl=0x1p+0 r=0 pd=0 it=27 ch=28 pu=104464 "
    "lr=0 mr=7 c=c46aa5ae15276818",
    "powerlaw/float/default gc=249120 gs=53508 so=46966 sp=37907 se=17232 "
    "hp=0 at=327 fl=15074 co=0 t=0x1.94ba2c6ecb67cp-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.d4f69f322f344p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1bf9eb7bffa3cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.33cb9c812a145p-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=7 pu=56552 lr=0 "
    "mr=3 c=ac26caba078d393b",
    "powerlaw/float/static_bits gc=249120 gs=53508 so=46966 sp=37907 "
    "se=17232 hp=0 at=327 fl=15074 co=0 t=0x1.94ba2c6ecb67cp-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.d4f69f322f344p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1bf9eb7bffa3cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.33cb9c812a145p-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=7 pu=56552 lr=0 "
    "mr=3 c=ac26caba078d393b",
    "powerlaw/float/retain0 gc=249120 gs=53508 so=46966 sp=37907 se=17232 "
    "hp=0 at=327 fl=15074 co=0 t=0x1.94ba2c6ecb67cp-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.d4f69f322f344p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1bf9eb7bffa3cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.33cb9c812a145p-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=7 pu=56552 lr=0 "
    "mr=3 c=ac26caba078d393b",
    "powerlaw/float/npb64 gc=261496 gs=54148 so=49132 sp=32968 se=17958 "
    "hp=0 at=401 fl=15074 co=0 t=0x1.75882d426482cp-15 "
    "GLB=0x1.17b1bcc7a93c5p-17 ESC=0x1.4a000328b5cc5p-17 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.3eb1ad2e500f8p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1f0bd40585742p-17 mpl=0x1p+0 r=0 pd=0 it=24 ch=25 pu=62936 lr=0 "
    "mr=13 c=187beddc3cbd52fa",
    "powerlaw/float/npb32_pm2 gc=273628 gs=58148 so=51177 sp=34630 se=19161 "
    "hp=0 at=513 fl=15074 co=11264 t=0x1.c0e7897734e28p-15 "
    "GLB=0x1.17c76897081c5p-17 ESC=0x1.32327f7fd42f6p-17 "
    "MCC=0x1.16f1861df06e3p-17 MM=0x1.4a88e2ce3dff7p-17 PM=0x0p+0 "
    "SM=0x1.3d33def74781dp-17 CC=0x1.1af5f5e2814ebp-17 mpl=0x1p+0 r=0 pd=0 "
    "it=47 ch=50 pu=69276 lr=0 mr=30 c=1700f30f0d4f2560",
    "powerlaw/float/lrt7 gc=294392 gs=91236 so=43165 sp=132897 se=25050 "
    "hp=0 at=1379 fl=15074 co=26112 t=0x1.247c45c2b599bp-14 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.bb9ad46fa7226p-17 "
    "MCC=0x1.1862e018c6ff5p-17 MM=0x1.8318474e7a3bfp-17 "
    "PM=0x1.3e075db7ab0f4p-17 SM=0x1.5bde7974aa6f8p-17 "
    "CC=0x1.1b45940e74219p-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=248 pu=84432 "
    "lr=205 mr=128 c=7778c13060105c21",
    "powerlaw/float/no_long_rows gc=249120 gs=53508 so=46966 sp=37907 "
    "se=17232 hp=0 at=327 fl=15074 co=0 t=0x1.94ba2c6ecb67cp-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.d4f69f322f344p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1bf9eb7bffa3cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.33cb9c812a145p-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=7 pu=56552 lr=0 "
    "mr=3 c=ac26caba078d393b",
    "powerlaw/float/pool16k gc=312816 gs=97608 so=73417 sp=67902 se=30455 "
    "hp=0 at=327 fl=27072 co=0 t=0x1.03e6db935ac46p-14 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.d4f69f322f344p-17 "
    "ESC=0x1.cc4e2adfa884p-17 MCC=0x1.168bc387d9e2ep-17 "
    "MM=0x1.1bf9eb7bffa3cp-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.33cb9c812a145p-17 "
    "mpl=0x1p+0 r=1 pd=5 it=11 ch=7 pu=56552 lr=0 mr=3 c=ac26caba078d393b",
    "powerlaw/float/ept4_retain2 gc=249312 gs=53668 so=48679 sp=37418 "
    "se=17458 hp=0 at=345 fl=15074 co=0 t=0x1.9187c835f4522p-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.d5b1d7735b0d2p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1bf9eb7bffa3cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2646d35ca1e5p-17 mpl=0x1p+0 r=0 pd=0 it=12 ch=13 pu=56744 lr=0 "
    "mr=3 c=ac26caba078d393b",
    "banded/float/default gc=302356 gs=82960 so=97802 sp=80524 se=43953 "
    "hp=0 at=327 fl=40872 co=0 t=0x1.8fc6f6402d87fp-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.d082e8a132b63p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.22350a76f267fp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1d55392ba6a7dp-17 mpl=0x1p+0 r=0 pd=0 it=18 ch=19 pu=37328 lr=0 "
    "mr=7 c=ae8919841f3cbf71",
    "banded/float/static_bits gc=302356 gs=82960 so=97802 sp=82681 se=43953 "
    "hp=0 at=327 fl=40872 co=0 t=0x1.8fc6f6402d87fp-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.d082e8a132b63p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.22350a76f267fp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1d55392ba6a7dp-17 mpl=0x1p+0 r=0 pd=0 it=18 ch=19 pu=37328 lr=0 "
    "mr=7 c=ae8919841f3cbf71",
    "banded/float/retain0 gc=306020 gs=83536 so=98359 sp=80893 se=44079 "
    "hp=0 at=345 fl=40872 co=0 t=0x1.93969841ba04dp-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.d0b7e49f8b178p-17 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.30bb25d24430cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1db6be50d197fp-17 mpl=0x1p+0 r=0 pd=0 it=18 ch=19 pu=39160 lr=0 "
    "mr=16 c=0bcda0c0b79462f5",
    "banded/float/npb64 gc=313228 gs=84208 so=97233 sp=64408 se=44474 hp=0 "
    "at=429 fl=40872 co=0 t=0x1.760c2d9712646p-15 GLB=0x1.18a6b72780b18p-17 "
    "ESC=0x1.451f30933d94p-17 MCC=0x1.16f54af41730fp-17 "
    "MM=0x1.4972a5bfb6e01p-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.1a02ddedbd3afp-17 "
    "mpl=0x1p+0 r=0 pd=0 it=36 ch=37 pu=42896 lr=0 mr=31 c=e12bd4ca7b087009",
    "banded/float/npb32_pm2 gc=327900 gs=86256 so=99630 sp=67472 se=45293 "
    "hp=0 at=601 fl=40872 co=0 t=0x1.88637cf7d625ep-15 "
    "GLB=0x1.18ea8e363a63ap-17 ESC=0x1.4fa7c507f036bp-17 "
    "MCC=0x1.176de5b8ef8a2p-17 MM=0x1.7d6e1ae341558p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.241fa004fd1d6p-17 mpl=0x1p+0 r=0 pd=0 it=72 ch=73 pu=50600 lr=0 "
    "mr=63 c=9aa92729c9b1cd8b",
    "banded/float/lrt7 gc=418916 gs=586480 so=32356 sp=68352 se=89218 hp=0 "
    "at=10090 fl=40872 co=2264064 t=0x1.04b6dfe3f4214p-14 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.8a2f40f9693d3p-17 "
    "MCC=0x1.1a454b2c28641p-17 MM=0x0p+0 PM=0x1.37391584cdd1p-17 "
    "SM=0x1.f0486e2e7bd3p-17 CC=0x1.414d196a50593p-17 "
    "mpl=0x1.c71d922e87072p-1 r=0 pd=0 it=2 ch=2520 pu=152720 lr=2262 "
    "mr=256 c=62077dc79ccc5e61",
    "banded/float/no_long_rows gc=302356 gs=82960 so=97802 sp=80524 "
    "se=43953 hp=0 at=327 fl=40872 co=0 t=0x1.8fc6f6402d87fp-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.d082e8a132b63p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.22350a76f267fp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1d55392ba6a7dp-17 mpl=0x1p+0 r=0 pd=0 it=18 ch=19 pu=37328 lr=0 "
    "mr=7 c=ae8919841f3cbf71",
    "banded/float/pool16k gc=400000 gs=124672 so=141287 sp=121484 se=65693 "
    "hp=0 at=327 fl=61352 co=0 t=0x1.01ed7501d47acp-14 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.d04fcf0dedb64p-17 "
    "ESC=0x1.d082e8a132b63p-17 MCC=0x1.169ad6e074ee1p-17 "
    "MM=0x1.22350a76f267fp-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.1d55392ba6a7dp-17 "
    "mpl=0x1p+0 r=1 pd=5 it=23 ch=19 pu=37328 lr=0 mr=7 c=ae8919841f3cbf71",
    "banded/float/ept4_retain2 gc=302644 gs=83216 so=100209 sp=62414 "
    "se=44067 hp=0 at=354 fl=40872 co=0 t=0x1.8f694200a3704p-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.d13e20e25e8fp-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.22350a76f267fp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1b232fec52702p-17 mpl=0x1p+0 r=0 pd=0 it=27 ch=28 pu=37616 lr=0 "
    "mr=7 c=ae8919841f3cbf71",
    "stencil2d/float/default gc=222484 gs=69440 so=50869 sp=37413 se=21388 "
    "hp=0 at=437 fl=18576 co=0 t=0x1.8e133b1665e36p-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.c4c7bab8e213fp-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1e118ad5f3242p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.26df773dc3b5ep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=41056 lr=0 "
    "mr=5 c=de232fffcbf9da0c",
    "stencil2d/float/static_bits gc=222484 gs=69440 so=50869 sp=46701 "
    "se=21388 hp=0 at=437 fl=18576 co=0 t=0x1.8e133b1665e36p-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.c4c7bab8e213fp-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1e118ad5f3242p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.26df773dc3b5ep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=41056 lr=0 "
    "mr=5 c=de232fffcbf9da0c",
    "stencil2d/float/retain0 gc=222484 gs=69440 so=50869 sp=37413 se=21388 "
    "hp=0 at=437 fl=18576 co=0 t=0x1.8e133b1665e36p-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.c4c7bab8e213fp-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1e118ad5f3242p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.26df773dc3b5ep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=41056 lr=0 "
    "mr=5 c=de232fffcbf9da0c",
    "stencil2d/float/npb64 gc=228848 gs=70656 so=51848 sp=38238 se=21726 "
    "hp=0 at=541 fl=18576 co=0 t=0x1.718f8d965f946p-15 "
    "GLB=0x1.18159cf2ac663p-17 ESC=0x1.427de0877dbeep-17 "
    "MCC=0x1.16dae91907dd7p-17 MM=0x1.398e7928c3c8ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1b41569d88867p-17 mpl=0x1p+0 r=0 pd=0 it=30 ch=31 pu=44464 lr=0 "
    "mr=24 c=de232fffcbf9da0c",
    "stencil2d/float/npb32_pm2 gc=236800 gs=72192 so=53054 sp=31056 "
    "se=22142 hp=0 at=679 fl=18576 co=0 t=0x1.77628cf2cf3aap-15 "
    "GLB=0x1.1831e138cf1b1p-17 ESC=0x1.2cbde748818c7p-17 "
    "MCC=0x1.17355d2caa205p-17 MM=0x1.5bff6bbc2c342p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2565a26115ee8p-17 mpl=0x1p+0 r=0 pd=0 it=60 ch=61 pu=48752 lr=0 "
    "mr=48 c=de232fffcbf9da0c",
    "stencil2d/float/lrt7 gc=222484 gs=69440 so=50869 sp=37413 se=21388 "
    "hp=0 at=437 fl=18576 co=0 t=0x1.8e133b1665e36p-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.c4c7bab8e213fp-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1e118ad5f3242p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.26df773dc3b5ep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=41056 lr=0 "
    "mr=5 c=de232fffcbf9da0c",
    "stencil2d/float/no_long_rows gc=222484 gs=69440 so=50869 sp=37413 "
    "se=21388 hp=0 at=437 fl=18576 co=0 t=0x1.8e133b1665e36p-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.c4c7bab8e213fp-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1e118ad5f3242p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.26df773dc3b5ep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=41056 lr=0 "
    "mr=5 c=de232fffcbf9da0c",
    "stencil2d/float/pool16k gc=282024 gs=110912 so=75542 sp=59777 se=33722 "
    "hp=0 at=437 fl=29758 co=0 t=0x1.ff38ea0ca06f4p-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.c496bbd8ea2fcp-17 "
    "ESC=0x1.c4c7bab8e213fp-17 MCC=0x1.16934d3427688p-17 "
    "MM=0x1.1e118ad5f3242p-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.26df773dc3b5ep-17 "
    "mpl=0x1p+0 r=1 pd=5 it=13 ch=9 pu=41056 lr=0 mr=5 c=de232fffcbf9da0c",
    "stencil2d/float/ept4_retain2 gc=222708 gs=69472 so=52736 sp=37685 "
    "se=21456 hp=0 at=458 fl=18576 co=0 t=0x1.8c6bcfb93eff4p-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.c5539e3cefafap-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1e118ad5f3242p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1fb5e6451a89fp-17 mpl=0x1p+0 r=0 pd=0 it=15 ch=16 pu=41280 lr=0 "
    "mr=5 c=de232fffcbf9da0c",
    "stencil3d/float/default gc=460700 gs=115776 so=108737 sp=93874 "
    "se=45061 hp=0 at=572 fl=40576 co=0 t=0x1.93eed178c99dp-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.cdcafb908a506p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.265c4eee186e8p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2c827b06fc49p-17 mpl=0x1p+0 r=0 pd=0 it=13 ch=14 pu=86248 lr=0 "
    "mr=9 c=9e8e9b102a0047c2",
    "stencil3d/float/static_bits gc=460700 gs=115776 so=108737 sp=102448 "
    "se=45061 hp=0 at=572 fl=40576 co=0 t=0x1.93eed178c99dp-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.cdcafb908a506p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.265c4eee186e8p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2c827b06fc49p-17 mpl=0x1p+0 r=0 pd=0 it=13 ch=14 pu=86248 lr=0 "
    "mr=9 c=9e8e9b102a0047c2",
    "stencil3d/float/retain0 gc=460700 gs=115776 so=108737 sp=93874 "
    "se=45061 hp=0 at=572 fl=40576 co=0 t=0x1.93eed178c99dp-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.cdcafb908a506p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.265c4eee186e8p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2c827b06fc49p-17 mpl=0x1p+0 r=0 pd=0 it=13 ch=14 pu=86248 lr=0 "
    "mr=9 c=9e8e9b102a0047c2",
    "stencil3d/float/npb64 gc=476784 gs=117760 so=111396 sp=85656 se=45966 "
    "hp=0 at=745 fl=40576 co=0 t=0x1.7b418eaefbf64p-15 "
    "GLB=0x1.1891fc8dab822p-17 ESC=0x1.44b619b773ba9p-17 "
    "MCC=0x1.1717367b740ap-17 MM=0x1.5c1bd02b94781p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1c8b1dcfc81a5p-17 mpl=0x1p+0 r=0 pd=0 it=50 ch=51 pu=94672 lr=0 "
    "mr=40 c=9e8e9b102a0047c2",
    "stencil3d/float/npb32_pm2 gc=497600 gs=120320 so=114818 sp=89942 "
    "se=47130 hp=0 at=978 fl=40576 co=0 t=0x1.8e2efab249aa4p-15 "
    "GLB=0x1.18c119029005p-17 ESC=0x1.4ec24e9127414p-17 "
    "MCC=0x1.17adf7f182798p-17 MM=0x1.92ee727a1e0d2p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.269c18c9cedc1p-17 mpl=0x1p+0 r=0 pd=0 it=100 ch=102 pu=105616 "
    "lr=0 mr=80 c=9e8e9b102a0047c2",
    "stencil3d/float/lrt7 gc=620152 gs=303008 so=91046 sp=708232 se=95652 "
    "hp=0 at=7638 fl=40576 co=0 t=0x1.0d430f1ad170dp-14 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.c281e815425dap-17 "
    "MCC=0x1.19b06c212d55fp-17 MM=0x1.81cabeebf96e6p-17 "
    "PM=0x1.b9b48dab38d6fp-17 SM=0x0p+0 CC=0x1.39f7b8382494ep-17 "
    "mpl=0x1.c001530b12309p-1 r=0 pd=0 it=13 ch=1747 pu=204812 lr=1512 "
    "mr=433 c=9e8e9b102a0047c2",
    "stencil3d/float/no_long_rows gc=460700 gs=115776 so=108737 sp=93874 "
    "se=45061 hp=0 at=572 fl=40576 co=0 t=0x1.93eed178c99dp-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.cdcafb908a506p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.265c4eee186e8p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2c827b06fc49p-17 mpl=0x1p+0 r=0 pd=0 it=13 ch=14 pu=86248 lr=0 "
    "mr=9 c=9e8e9b102a0047c2",
    "stencil3d/float/pool16k gc=640432 gs=217152 so=186420 sp=177628 "
    "se=83897 hp=0 at=572 fl=76596 co=0 t=0x1.3c4f237062dbcp-14 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.c9c90f05689c5p-17 "
    "ESC=0x1.cdcafb908a506p-17 ESC=0x1.c8f4c69a87cdcp-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.265c4eee186e8p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2c827b06fc49p-17 mpl=0x1p+0 r=2 pd=11 it=24 ch=14 pu=86248 lr=0 "
    "mr=9 c=9e8e9b102a0047c2",
    "stencil3d/float/ept4_retain2 gc=461084 gs=116032 so=111971 sp=89928 "
    "se=45211 hp=0 at=608 fl=40576 co=0 t=0x1.917574b171723p-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.ce0d990cdddp-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.265c4eee186e8p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.225a6a6d481e4p-17 mpl=0x1p+0 r=0 pd=0 it=25 ch=26 pu=86632 lr=0 "
    "mr=9 c=9e8e9b102a0047c2",
    "blockdense/float/default gc=1868328 gs=170360 so=548158 sp=465862 "
    "se=232763 hp=0 at=454 fl=216874 co=0 t=0x1.cfec5986172c2p-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.423e0494f868dp-16 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.63f5e81530b5dp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.28658bd26f766p-17 mpl=0x1p+0 r=0 pd=0 it=71 ch=74 pu=326864 "
    "lr=0 mr=16 c=e48b6760c17afbd7",
    "blockdense/float/static_bits gc=1868328 gs=170360 so=548158 sp=472648 "
    "se=232763 hp=0 at=454 fl=216874 co=0 t=0x1.d1c96ad25a0b2p-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.45f8272d7e26dp-16 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.63f5e81530b5dp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.28658bd26f766p-17 mpl=0x1p+0 r=0 pd=0 it=71 ch=74 pu=326864 "
    "lr=0 mr=16 c=e48b6760c17afbd7",
    "blockdense/float/retain0 gc=2021736 gs=172280 so=566039 sp=474454 "
    "se=235644 hp=0 at=493 fl=216874 co=0 t=0x1.d3de85479ceb7p-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.3b7b888f8c68ep-16 "
    "MCC=0x1.17447085452b8p-17 MM=0x1.667b004b2bf45p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.42a66c8fefd09p-17 mpl=0x1p+0 r=0 pd=0 it=55 ch=63 pu=403392 "
    "lr=0 mr=52 c=98a3339c5aa767a6",
    "blockdense/float/npb64 gc=2090592 gs=172056 so=569471 sp=487346 "
    "se=239868 hp=0 at=581 fl=216874 co=0 t=0x1.a7b5764fc87cdp-15 "
    "GLB=0x1.1882e9351077p-17 ESC=0x1.cdd02ab603d29p-17 "
    "MCC=0x1.1779343b63d28p-17 MM=0x1.66993e1bace94p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3a7052fcfcee1p-17 mpl=0x1p+0 r=0 pd=0 it=73 ch=83 pu=437824 "
    "lr=0 mr=66 c=a140ed90362920e4",
    "blockdense/float/npb32_pm2 gc=2373356 gs=176216 so=621717 sp=505651 "
    "se=257324 hp=0 at=957 fl=216874 co=0 t=0x1.9dc7d29d7b839p-15 "
    "GLB=0x1.190c79bd973ccp-17 ESC=0x1.a660256ff6166p-17 "
    "MCC=0x1.186e2e9b3b47bp-17 MM=0x1.664c1c21c2eb8p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.38f8608b6288p-17 mpl=0x1.57b5c7a62b9f6p-1 r=0 pd=0 it=146 "
    "ch=165 pu=580096 lr=0 mr=131 c=7480868100982aec",
    "blockdense/float/lrt7 gc=2032168 gs=1493592 so=185827 sp=216874 "
    "se=164899 hp=0 at=19448 fl=216874 co=5899776 t=0x1.03e13d5dbc307p-14 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.86aaa53ed055dp-17 "
    "MCC=0x1.19723c53adc8p-17 MM=0x0p+0 PM=0x0p+0 SM=0x1.8e51c75a8d6c8p-16 "
    "CC=0x1.4a2c54074ea0dp-17 mpl=0x1.85e95a8e510fep-1 r=0 pd=0 it=0 "
    "ch=4862 pu=521888 lr=4662 mr=200 c=04828768b2c27b0e",
    "blockdense/float/no_long_rows gc=1868328 gs=170360 so=548158 sp=465862 "
    "se=232763 hp=0 at=454 fl=216874 co=0 t=0x1.cfec5986172c2p-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.423e0494f868dp-16 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.63f5e81530b5dp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.28658bd26f766p-17 mpl=0x1p+0 r=0 pd=0 it=71 ch=74 pu=326864 "
    "lr=0 mr=16 c=e48b6760c17afbd7",
    "blockdense/float/pool16k gc=2661764 gs=326080 so=902949 sp=800326 "
    "se=410053 hp=0 at=454 fl=383930 co=0 t=0x1.d7c33c1eaff23p-14 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.40208f4eeadf2p-16 "
    "ESC=0x1.4000e268f6d78p-16 ESC=0x1.3f7bc7fceabfbp-16 "
    "ESC=0x1.41d5084ebd62cp-16 MCC=0x1.16bcc267d1c72p-17 "
    "MM=0x1.63f5e81530b5dp-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.28658bd26f766p-17 "
    "mpl=0x1p+0 r=3 pd=42 it=113 ch=74 pu=326864 lr=0 mr=16 "
    "c=e48b6760c17afbd7",
    "blockdense/float/ept4_retain2 gc=1870216 gs=172280 so=570609 sp=501232 "
    "se=240767 hp=0 at=631 fl=216874 co=0 t=0x1.d4e24365a77eap-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.517fee3395577p-16 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.3e4649e926c06p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4368fe3f80d88p-17 mpl=0x1.999bb4bf00f8dp-1 r=0 pd=0 it=128 "
    "ch=133 pu=328752 lr=0 mr=16 c=e48b6760c17afbd7",
    "rmat10/float/default gc=2395600 gs=126500 so=550909 sp=484176 "
    "se=211143 hp=0 at=764 fl=195472 co=0 t=0x1.04835e7743d17p-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.a360fddf1af7p-16 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.76dd2deebcc7cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.376064fd7eaa5p-17 mpl=0x1p+0 r=0 pd=0 it=58 ch=59 pu=530860 "
    "lr=0 mr=13 c=7d209e398008dd1f",
    "rmat10/float/static_bits gc=2395600 gs=126500 so=550909 sp=534749 "
    "se=211143 hp=0 at=764 fl=195472 co=0 t=0x1.0aec9020a0052p-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.bd05c4848bc5cp-16 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.76dd2deebcc7cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.376064fd7eaa5p-17 mpl=0x1p+0 r=0 pd=0 it=58 ch=59 pu=530860 "
    "lr=0 mr=13 c=7d209e398008dd1f",
    "rmat10/float/retain0 gc=2581436 gs=132132 so=578914 sp=514413 "
    "se=217348 hp=0 at=867 fl=195472 co=0 t=0x1.2aa975ea354e6p-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.94b56649fdc52p-16 "
    "MCC=0x1.1740abaf1e68bp-17 MM=0x1.78456b7868b62p-17 "
    "PM=0x1.4ec114dd5f215p-17 SM=0x0p+0 CC=0x1.352fc58e78fbcp-17 mpl=0x1p+0 "
    "r=0 pd=0 it=56 ch=67 pu=623912 lr=0 mr=51 c=9b35f6ca0f783a55",
    "rmat10/float/npb64 gc=2588232 gs=128708 so=571461 sp=452086 se=218514 "
    "hp=0 at=879 fl=195472 co=0 t=0x1.fff1e8c31f13cp-15 "
    "GLB=0x1.187dba8e9b2b3p-17 ESC=0x1.a59cd57e783fbp-17 "
    "MCC=0x1.172dd3805c9acp-17 MM=0x1.7ccd1bc9b9371p-17 "
    "PM=0x1.5398cfc3bada7p-17 SM=0x0p+0 CC=0x1.5a1953f19837ep-17 mpl=0x1p+0 "
    "r=0 pd=0 it=66 ch=75 pu=627216 lr=0 mr=46 c=8ea5f80fea963d45",
    "rmat10/float/npb32_pm2 gc=2767540 gs=146052 so=602679 sp=480655 "
    "se=230568 hp=0 at=1134 fl=195472 co=65024 t=0x1.fc533ef75e34bp-15 "
    "GLB=0x1.189895046f57p-17 ESC=0x1.a5f8b1791240cp-17 "
    "MCC=0x1.17a66e4534f3fp-17 MM=0x1.7c1494cd46bbfp-17 PM=0x0p+0 "
    "SM=0x1.5a55ef22cd7c8p-17 CC=0x1.44aac32aae0e7p-17 mpl=0x1p+0 r=0 pd=0 "
    "it=114 ch=135 pu=717548 lr=0 mr=78 c=4c798e58ced61e4a",
    "rmat10/float/lrt7 gc=2406004 gs=737956 so=227112 sp=846594 se=174059 "
    "hp=0 at=11572 fl=195472 co=1936640 t=0x1.664494b568b43p-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.96fea15196aaap-17 "
    "MCC=0x1.193f5b08a2826p-17 MM=0x1.803f469ae619ap-17 "
    "PM=0x1.ce689fe4f1cedp-17 SM=0x1.4df719cc28106p-16 "
    "CC=0x1.7ee69e0e94bf1p-17 mpl=0x1.7e1f025fa4a5p-1 r=0 pd=0 it=15 "
    "ch=2795 pu=598592 lr=2499 mr=373 c=461f75cb7a0b11fa",
    "rmat10/float/no_long_rows gc=2395600 gs=126500 so=550909 sp=484176 "
    "se=211143 hp=0 at=764 fl=195472 co=0 t=0x1.04835e7743d17p-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.a360fddf1af7p-16 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.76dd2deebcc7cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.376064fd7eaa5p-17 mpl=0x1p+0 r=0 pd=0 it=58 ch=59 pu=530860 "
    "lr=0 mr=13 c=7d209e398008dd1f",
    "rmat10/float/pool16k gc=3168972 gs=249204 so=889224 sp=856000 "
    "se=380219 hp=0 at=764 fl=354488 co=0 t=0x1.32da857437ce8p-13 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.17eeaca790bb6p-16 "
    "ESC=0x1.78fdb90b963cep-16 ESC=0x1.7e76339a78154p-16 "
    "ESC=0x1.8365272c435e6p-16 ESC=0x1.955fef29e7b9ap-16 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.76dd2deebcc7cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.376064fd7eaa5p-17 mpl=0x1p+0 r=4 pd=40 it=98 ch=59 pu=530860 "
    "lr=0 mr=13 c=7d209e398008dd1f",
    "rmat10/float/ept4_retain2 gc=2397264 gs=128324 so=574305 sp=456419 "
    "se=220097 hp=0 at=920 fl=195472 co=0 t=0x1.f63dfd2dc9fd4p-15 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.9417bb9993fa4p-16 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.3eb257acbfbe6p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.42fac0c79316fp-17 mpl=0x1p+0 r=0 pd=0 it=115 ch=111 pu=532524 "
    "lr=0 mr=13 c=7d209e398008dd1f",
    "longrows/float/default gc=1923832 gs=691076 so=348076 sp=322394 "
    "se=154035 hp=0 at=2894 fl=137072 co=704256 t=0x1.ade7df08bf069p-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.c27863deed4b7p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.30e57c26d5789p-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.5d15477927deap-15 "
    "CC=0x1.295028e55c53ep-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=96 pu=443920 "
    "lr=12 mr=26 c=a7dcea4e918835ca",
    "longrows/float/static_bits gc=1923832 gs=691076 so=348076 sp=359202 "
    "se=154035 hp=0 at=2894 fl=137072 co=704256 t=0x1.ade7df08bf069p-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.c27863deed4b7p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.30e57c26d5789p-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.5d15477927deap-15 "
    "CC=0x1.295028e55c53ep-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=96 pu=443920 "
    "lr=12 mr=26 c=a7dcea4e918835ca",
    "longrows/float/retain0 gc=1923832 gs=691076 so=348076 sp=322394 "
    "se=154035 hp=0 at=2894 fl=137072 co=704256 t=0x1.ade7df08bf069p-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.c27863deed4b7p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.30e57c26d5789p-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.5d15477927deap-15 "
    "CC=0x1.295028e55c53ep-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=96 pu=443920 "
    "lr=12 mr=26 c=a7dcea4e918835ca",
    "longrows/float/npb64 gc=1972540 gs=950276 so=355783 sp=328824 "
    "se=156612 hp=0 at=3593 fl=137072 co=1714944 t=0x1.2ceacb17f8f89p-13 "
    "GLB=0x1.18817f64c1edfp-17 ESC=0x1.df6104eb5a5cep-17 "
    "MCC=0x1.17cfe378df52ap-17 MM=0x1.829d6226e8f5bp-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.497ebf46b23f5p-14 "
    "CC=0x1.416ff62736e3p-17 mpl=0x1.7f82452211338p-1 r=0 pd=0 it=221 "
    "ch=261 pu=470128 lr=12 mr=89 c=25de5be872b0170c",
    "longrows/float/npb32_pm2 gc=2001376 gs=1232644 so=359318 sp=333649 "
    "se=157794 hp=0 at=4509 fl=137072 co=2811648 t=0x1.8c1cfd4709948p-13 "
    "GLB=0x1.18aaf4986c4cap-17 ESC=0x1.0391851040d96p-16 "
    "MCC=0x1.18f217e287e93p-17 MM=0x1.e721778357876p-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.f3e5cbae30237p-14 "
    "CC=0x1.53c8f1ad68a48p-17 mpl=0x1.bf1a81a72babfp-1 r=0 pd=0 it=441 "
    "ch=481 pu=487032 lr=12 mr=166 c=d606aa7fd35c597f",
    "longrows/float/lrt7 gc=1923832 gs=691076 so=348076 sp=322394 se=154035 "
    "hp=0 at=2894 fl=137072 co=704256 t=0x1.ade7df08bf069p-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.c27863deed4b7p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.30e57c26d5789p-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.5d15477927deap-15 "
    "CC=0x1.295028e55c53ep-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=96 pu=443920 "
    "lr=12 mr=26 c=a7dcea4e918835ca",
    "longrows/float/no_long_rows gc=2310844 gs=663620 so=502972 sp=408206 "
    "se=203871 hp=0 at=2882 fl=137072 co=589824 t=0x1.a3aa1ecff1fbdp-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.01df1b97d3928p-16 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.30e57c26d5789p-17 "
    "PM=0x1.abf80e4369777p-17 SM=0x1.39080c6f3d7aep-15 "
    "CC=0x1.295028e55c53ep-17 mpl=0x1p+0 r=0 pd=0 it=68 ch=93 pu=637300 "
    "lr=0 mr=26 c=f87077d58abc9c90",
    "longrows/float/pool16k gc=3080148 gs=1823844 so=788279 sp=715560 "
    "se=374075 hp=0 at=2894 fl=325624 co=704256 t=0x1.4773c728b7256p-13 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.c216d6af70f78p-17 "
    "ESC=0x1.c1bbf20b5b402p-17 ESC=0x1.c1cb0563f64b4p-17 "
    "ESC=0x1.c27863deed4b7p-17 ESC=0x1.c25fac26b79fp-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.30e57c26d5789p-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.5d15477927deap-15 "
    "CC=0x1.295028e55c53ep-17 mpl=0x1p+0 r=4 pd=123 it=179 ch=96 pu=443920 "
    "lr=12 mr=26 c=a7dcea4e918835ca",
    "longrows/float/ept4_retain2 gc=1924588 gs=845060 so=348076 sp=330842 "
    "se=159411 hp=0 at=2978 fl=137072 co=1307904 t=0x1.07830fd201444p-13 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.c27863deed4b7p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.30e57c26d5789p-17 "
    "PM=0x1.ce7e75a8888f9p-17 SM=0x1.0957fc57d604bp-14 "
    "CC=0x1.3c4fea6fc140bp-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=117 pu=444676 "
    "lr=12 mr=26 c=a7dcea4e918835ca",
    "uniform/double/default gc=533056 gs=64688 so=67170 sp=53963 se=23944 "
    "hp=0 at=334 fl=21380 co=0 t=0x1.a32bad598d904p-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.ec096334a9d0bp-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.234f44a3da046p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4f21082006831p-17 mpl=0x1p+0 r=0 pd=0 it=7 ch=8 pu=125432 lr=0 "
    "mr=5 c=86489bcf2ffa7515",
    "uniform/double/static_bits gc=533056 gs=64688 so=67170 sp=53963 "
    "se=23944 hp=0 at=334 fl=21380 co=0 t=0x1.a32bad598d904p-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.ec096334a9d0bp-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.234f44a3da046p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4f21082006831p-17 mpl=0x1p+0 r=0 pd=0 it=7 ch=8 pu=125432 lr=0 "
    "mr=5 c=86489bcf2ffa7515",
    "uniform/double/retain0 gc=533056 gs=64688 so=67170 sp=53963 se=23944 "
    "hp=0 at=334 fl=21380 co=0 t=0x1.a32bad598d904p-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.ec096334a9d0bp-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.234f44a3da046p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4f21082006831p-17 mpl=0x1p+0 r=0 pd=0 it=7 ch=8 pu=125432 lr=0 "
    "mr=5 c=86489bcf2ffa7515",
    "uniform/double/npb64 gc=547036 gs=65648 so=68796 sp=45584 se=24494 "
    "hp=0 at=427 fl=21380 co=0 t=0x1.7ae0b2627e35p-15 "
    "GLB=0x1.17b5819dcfff1p-17 ESC=0x1.4d0614805fb48p-17 "
    "MCC=0x1.16cbd5c06cd25p-17 MM=0x1.49dba47c8c8e4p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.261fb92ecfc01p-17 mpl=0x1p+0 r=0 pd=0 it=28 ch=29 pu=132644 "
    "lr=0 mr=20 c=86489bcf2ffa7515",
    "uniform/double/npb32_pm2 gc=569320 gs=67248 so=71407 sp=49028 se=25380 "
    "hp=0 at=561 fl=21380 co=0 t=0x1.8217602ee3916p-15 "
    "GLB=0x1.17cfe378df52ap-17 ESC=0x1.32302c844d596p-17 "
    "MCC=0x1.172a0eaa35d7fp-17 MM=0x1.88c031efc81e4p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1e73302463a34p-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=57 pu=144072 "
    "lr=0 mr=45 c=86489bcf2ffa7515",
    "uniform/double/lrt7 gc=689768 gs=261904 so=67734 sp=635370 se=76620 "
    "hp=0 at=3716 fl=21380 co=0 t=0x1.0fd2b5f68f9p-14 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.c729b1795ef02p-17 "
    "MCC=0x1.187b5f88c2f17p-17 MM=0x1.91032c0914c5p-17 "
    "PM=0x1.b90c04469defp-17 SM=0x0p+0 CC=0x1.3d3fb629236a1p-17 "
    "mpl=0x1.808104c348d82p-1 r=0 pd=0 it=7 ch=839 pu=221568 lr=627 mr=269 "
    "c=b55a9dc5dd096643",
    "uniform/double/no_long_rows gc=533056 gs=64688 so=67170 sp=53963 "
    "se=23944 hp=0 at=334 fl=21380 co=0 t=0x1.a32bad598d904p-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.ec096334a9d0bp-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.234f44a3da046p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4f21082006831p-17 mpl=0x1p+0 r=0 pd=0 it=7 ch=8 pu=125432 lr=0 "
    "mr=5 c=86489bcf2ffa7515",
    "uniform/double/pool16k gc=758884 gs=156560 so=133356 sp=130303 "
    "se=57032 hp=0 at=334 fl=51916 co=0 t=0x1.4803363a45141p-14 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.c8311b81d6226p-17 "
    "ESC=0x1.ec096334a9d0bp-17 ESC=0x1.eb39e0ea1c3d2p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.234f44a3da046p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4f21082006831p-17 mpl=0x1p+0 r=2 pd=10 it=17 ch=8 pu=125432 "
    "lr=0 mr=5 c=86489bcf2ffa7515",
    "uniform/double/ept4_retain2 gc=533280 gs=64880 so=69154 sp=51197 "
    "se=24133 hp=0 at=355 fl=21380 co=0 t=0x1.9cbf4f2c17c9ep-15 "
    "GLB=0x1.17a1b83984807p-17 ESC=0x1.ecc49b75d5a98p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.234f44a3da046p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.34b4572903907p-17 mpl=0x1p+0 r=0 pd=0 it=14 ch=15 pu=125656 "
    "lr=0 mr=5 c=86489bcf2ffa7515",
    "local/double/default gc=738328 gs=88044 so=111429 sp=79709 se=42862 "
    "hp=0 at=368 fl=39360 co=0 t=0x1.a252c2fcc7c79p-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.f6ca3fe316bf2p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.2b1007a305146p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.393161b26cca3p-17 mpl=0x1p+0 r=0 pd=0 it=17 ch=18 pu=155300 "
    "lr=0 mr=7 c=b45bfd8f37147948",
    "local/double/static_bits gc=738328 gs=88044 so=111429 sp=100096 "
    "se=42862 hp=0 at=368 fl=39360 co=0 t=0x1.a252c2fcc7c79p-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.f6ca3fe316bf2p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.2b1007a305146p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.393161b26cca3p-17 mpl=0x1p+0 r=0 pd=0 it=17 ch=18 pu=155300 "
    "lr=0 mr=7 c=b45bfd8f37147948",
    "local/double/retain0 gc=744288 gs=90476 so=112009 sp=86020 se=43475 "
    "hp=0 at=386 fl=39360 co=0 t=0x1.f3baa88c1e5b6p-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.f6f994a034fc4p-17 "
    "MCC=0x1.16adaf0f36bcp-17 MM=0x1.33f154e8ff13fp-17 "
    "PM=0x1.378767f2c8627p-17 SM=0x0p+0 CC=0x1.3e2615cb24ac6p-17 mpl=0x1p+0 "
    "r=0 pd=0 it=17 ch=20 pu=158316 lr=0 mr=12 c=c76c35b55739f551",
    "local/double/npb64 gc=762500 gs=89036 so=112374 sp=80248 se=43689 hp=0 "
    "at=469 fl=39360 co=0 t=0x1.81eec00ca6064p-15 GLB=0x1.17beedb530e61p-17 "
    "ESC=0x1.4ee5f4500089p-17 MCC=0x1.16e272c55563p-17 "
    "MM=0x1.6577a2abcb96p-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.24bc08bc45b11p-17 "
    "mpl=0x1p+0 r=0 pd=0 it=38 ch=39 pu=167572 lr=0 mr=26 "
    "c=9be9b717ff1d3261",
    "local/double/npb32_pm2 gc=805320 gs=91148 so=117488 sp=70912 se=45414 "
    "hp=0 at=652 fl=39360 co=0 t=0x1.9239e6c981829p-15 "
    "GLB=0x1.17e2bba7a1209p-17 ESC=0x1.58bd65739568bp-17 "
    "MCC=0x1.175ed260547fp-17 MM=0x1.921c1c8ef3677p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2ecc8b1b879a7p-17 mpl=0x1p+0 r=0 pd=0 it=76 ch=78 pu=189388 "
    "lr=0 mr=59 c=6a7cecbb26b2a872",
    "local/double/lrt7 gc=883580 gs=438924 so=58928 sp=600382 se=102957 "
    "hp=0 at=10043 fl=39360 co=852992 t=0x1.072f26128a85ep-14 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.9f4f1cbf98e0ap-17 "
    "MCC=0x1.18b5ca801bbcap-17 MM=0x0p+0 PM=0x1.b9bc07603352cp-17 "
    "SM=0x1.680f0e0565abcp-17 CC=0x1.4804a814e500ep-17 "
    "mpl=0x1.80aaed7bd5e96p-1 r=0 pd=0 it=10 ch=2469 pu=283568 lr=2159 "
    "mr=300 c=c9721e27bf7b82b2",
    "local/double/no_long_rows gc=738328 gs=88044 so=111429 sp=79709 "
    "se=42862 hp=0 at=368 fl=39360 co=0 t=0x1.a252c2fcc7c79p-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.f6ca3fe316bf2p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.2b1007a305146p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.393161b26cca3p-17 mpl=0x1p+0 r=0 pd=0 it=17 ch=18 pu=155300 "
    "lr=0 mr=7 c=b45bfd8f37147948",
    "local/double/pool16k gc=1111064 gs=205316 so=224055 sp=185685 se=99168 "
    "hp=0 at=368 fl=92348 co=0 t=0x1.4e187ca41d499p-14 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.f18b143a8ff22p-17 "
    "ESC=0x1.f5edc4f33b3c2p-17 ESC=0x1.f6ca3fe316bf2p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.2b1007a305146p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.393161b26cca3p-17 mpl=0x1p+0 r=2 pd=14 it=31 ch=18 pu=155300 "
    "lr=0 mr=7 c=b45bfd8f37147948",
    "local/double/ept4_retain2 gc=738648 gs=88300 so=114273 sp=80622 "
    "se=43136 hp=0 at=398 fl=39360 co=0 t=0x1.9edae197860aap-15 "
    "GLB=0x1.17a48bda21929p-17 ESC=0x1.f70cdd5f6a3edp-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.2b1007a305146p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2b0f3ea112568p-17 mpl=0x1p+0 r=0 pd=0 it=27 ch=28 pu=155620 "
    "lr=0 mr=7 c=b45bfd8f37147948",
    "powerlaw/double/default gc=367552 gs=53508 so=46966 sp=37907 se=17232 "
    "hp=0 at=327 fl=15074 co=0 t=0x1.9e93901216704p-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.ecf225e6d4b08p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1d0eeef82090ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4220a0dd8fcdap-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=7 pu=84104 lr=0 "
    "mr=3 c=1597add88bc21df1",
    "powerlaw/double/static_bits gc=367552 gs=53508 so=46966 sp=37907 "
    "se=17232 hp=0 at=327 fl=15074 co=0 t=0x1.9e93901216704p-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.ecf225e6d4b08p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1d0eeef82090ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4220a0dd8fcdap-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=7 pu=84104 lr=0 "
    "mr=3 c=1597add88bc21df1",
    "powerlaw/double/retain0 gc=367552 gs=53508 so=46966 sp=37907 se=17232 "
    "hp=0 at=327 fl=15074 co=0 t=0x1.9e93901216704p-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.ecf225e6d4b08p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1d0eeef82090ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4220a0dd8fcdap-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=7 pu=84104 lr=0 "
    "mr=3 c=1597add88bc21df1",
    "powerlaw/double/npb64 gc=385656 gs=54148 so=49132 sp=32968 se=17958 "
    "hp=0 at=401 fl=15074 co=0 t=0x1.79bcebf4f022ap-15 "
    "GLB=0x1.17b1bcc7a93c5p-17 ESC=0x1.51d8d5076959ep-17 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.437df1218fc22p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2339b8fdc0b36p-17 mpl=0x1p+0 r=0 pd=0 it=24 ch=25 pu=93352 lr=0 "
    "mr=13 c=9843bd6b6a9180fb",
    "powerlaw/double/npb32_pm2 gc=403180 gs=58148 so=51177 sp=34630 "
    "se=19161 hp=0 at=513 fl=15074 co=11264 t=0x1.c6cfec4626e6ep-15 "
    "GLB=0x1.17c76897081c5p-17 ESC=0x1.36f1f747a8924p-17 "
    "MCC=0x1.16f1861df06e3p-17 MM=0x1.562ff6eb153d8p-17 PM=0x0p+0 "
    "SM=0x1.424099e5367ddp-17 CC=0x1.1d243a4baec39p-17 mpl=0x1p+0 r=0 pd=0 "
    "it=47 ch=50 pu=102388 lr=0 mr=30 c=4a1e50c8bdef3567",
    "powerlaw/double/lrt7 gc=429216 gs=91236 so=43165 sp=132897 se=25050 "
    "hp=0 at=1379 fl=15074 co=26112 t=0x1.29ddc387f6886p-14 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.c849bb1b17a38p-17 "
    "MCC=0x1.1862e018c6ff5p-17 MM=0x1.9a86a16685a7ap-17 "
    "PM=0x1.3e075db7ab0f4p-17 SM=0x1.607840defb368p-17 "
    "CC=0x1.1d9a7a0aaee3p-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=248 pu=120180 "
    "lr=205 mr=128 c=adb64981fbf0ba62",
    "powerlaw/double/no_long_rows gc=367552 gs=53508 so=46966 sp=37907 "
    "se=17232 hp=0 at=327 fl=15074 co=0 t=0x1.9e93901216704p-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.ecf225e6d4b08p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1d0eeef82090ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4220a0dd8fcdap-17 mpl=0x1p+0 r=0 pd=0 it=6 ch=7 pu=84104 lr=0 "
    "mr=3 c=1597add88bc21df1",
    "powerlaw/double/pool16k gc=481464 gs=104844 so=79812 sp=75392 se=33652 "
    "hp=0 at=327 fl=30068 co=0 t=0x1.42b8b6078cf3dp-14 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.dfac2553d6769p-17 "
    "ESC=0x1.ecf225e6d4b08p-17 ESC=0x1.bbcb4aa03766cp-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1d0eeef82090ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4220a0dd8fcdap-17 mpl=0x1p+0 r=2 pd=6 it=12 ch=7 pu=84104 lr=0 "
    "mr=3 c=1597add88bc21df1",
    "powerlaw/double/ept4_retain2 gc=367744 gs=53668 so=48679 sp=37418 "
    "se=17458 hp=0 at=345 fl=15074 co=0 t=0x1.99b9c27eaccf9p-15 "
    "GLB=0x1.17a0c703facfcp-17 ESC=0x1.edad5e2800896p-17 "
    "MCC=0x1.168bc387d9e2ep-17 MM=0x1.1d0eeef82090ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2dfe324ebd71dp-17 mpl=0x1p+0 r=0 pd=0 it=12 ch=13 pu=84296 lr=0 "
    "mr=3 c=1597add88bc21df1",
    "banded/double/default gc=445996 gs=82960 so=97802 sp=80524 se=43953 "
    "hp=0 at=327 fl=40872 co=0 t=0x1.96c58a0e2c962p-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.e701c6d88d59p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.245f116f3441ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.20a6a3340663fp-17 mpl=0x1p+0 r=0 pd=0 it=18 ch=19 pu=55148 lr=0 "
    "mr=7 c=1f2a2ce8f2f9254e",
    "banded/double/static_bits gc=445996 gs=82960 so=97802 sp=82681 "
    "se=43953 hp=0 at=327 fl=40872 co=0 t=0x1.96c58a0e2c962p-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.e701c6d88d59p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.245f116f3441ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.20a6a3340663fp-17 mpl=0x1p+0 r=0 pd=0 it=18 ch=19 pu=55148 lr=0 "
    "mr=7 c=1f2a2ce8f2f9254e",
    "banded/double/retain0 gc=451420 gs=83536 so=98359 sp=80893 se=44079 "
    "hp=0 at=345 fl=40872 co=0 t=0x1.9b510721d50fep-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.e747b89a9426ep-17 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.3594ff7527e72p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2136cc3350fe9p-17 mpl=0x1p+0 r=0 pd=0 it=18 ch=19 pu=57860 lr=0 "
    "mr=16 c=8d6d8a528e1a111e",
    "banded/double/npb64 gc=461668 gs=84208 so=97233 sp=64408 se=44474 hp=0 "
    "at=429 fl=40872 co=0 t=0x1.7a4852d910342p-15 GLB=0x1.18a6b72780b18p-17 "
    "ESC=0x1.4ac671cd61c24p-17 MCC=0x1.16f54af41730fp-17 "
    "MM=0x1.5308325448368p-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.1bb6a526fef53p-17 "
    "mpl=0x1p+0 r=0 pd=0 it=36 ch=37 pu=63116 lr=0 mr=31 c=17708c1fde24246c",
    "banded/double/npb32_pm2 gc=482636 gs=86256 so=99630 sp=67472 se=45293 "
    "hp=0 at=601 fl=40872 co=0 t=0x1.8f1345a8badbcp-15 "
    "GLB=0x1.18ea8e363a63ap-17 ESC=0x1.555e199aaf702p-17 "
    "MCC=0x1.176de5b8ef8a2p-17 MM=0x1.90bd01fed43cep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.25d9871a3dd43p-17 mpl=0x1p+0 r=0 pd=0 it=72 ch=73 pu=73968 lr=0 "
    "mr=63 c=c3d8fd14ef288baf",
    "banded/double/lrt7 gc=561732 gs=586480 so=32356 sp=68352 se=89218 hp=0 "
    "at=10090 fl=40872 co=2264064 t=0x1.05a45faad6abfp-14 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.8cc8769f22892p-17 "
    "MCC=0x1.1a454b2c28641p-17 MM=0x0p+0 PM=0x1.37391584cdd1p-17 "
    "SM=0x1.f3e00a4b6d7b1p-17 CC=0x1.428845deb9ba5p-17 "
    "mpl=0x1.c71cfeb2d3b5p-1 r=0 pd=0 it=2 ch=2520 pu=170128 lr=2262 mr=256 "
    "c=54336b45222b52bd",
    "banded/double/no_long_rows gc=445996 gs=82960 so=97802 sp=80524 "
    "se=43953 hp=0 at=327 fl=40872 co=0 t=0x1.96c58a0e2c962p-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.e701c6d88d59p-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.245f116f3441ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.20a6a3340663fp-17 mpl=0x1p+0 r=0 pd=0 it=18 ch=19 pu=55148 lr=0 "
    "mr=7 c=1f2a2ce8f2f9254e",
    "banded/double/pool16k gc=647224 gs=141312 so=158697 sp=137868 se=74397 "
    "hp=0 at=327 fl=69544 co=0 t=0x1.083ab844abf4dp-14 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.e6bf99ecad4dfp-17 "
    "ESC=0x1.e701c6d88d59p-17 MCC=0x1.169ad6e074ee1p-17 "
    "MM=0x1.245f116f3441ap-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.20a6a3340663fp-17 "
    "mpl=0x1p+0 r=1 pd=7 it=25 ch=19 pu=55148 lr=0 mr=7 c=1f2a2ce8f2f9254e",
    "banded/double/ept4_retain2 gc=446284 gs=83216 so=100209 sp=62414 "
    "se=44067 hp=0 at=354 fl=40872 co=0 t=0x1.9623862523f3fp-15 "
    "GLB=0x1.1873d5dc756bep-17 ESC=0x1.e7bcff19b931ep-17 "
    "MCC=0x1.169ad6e074ee1p-17 MM=0x1.245f116f3441ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1d635b4eb8024p-17 mpl=0x1p+0 r=0 pd=0 it=27 ch=28 pu=55436 lr=0 "
    "mr=7 c=1f2a2ce8f2f9254e",
    "stencil2d/double/default gc=325660 gs=69440 so=50869 sp=37413 se=21388 "
    "hp=0 at=437 fl=18576 co=0 t=0x1.9454e4760e0dcp-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.d4d5b4f4fed36p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1f2e17fe61969p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2ebb9557d92dep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=60620 lr=0 "
    "mr=5 c=da5b157f5c66869b",
    "stencil2d/double/static_bits gc=325660 gs=69440 so=50869 sp=46701 "
    "se=21388 hp=0 at=437 fl=18576 co=0 t=0x1.9454e4760e0dcp-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.d4d5b4f4fed36p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1f2e17fe61969p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2ebb9557d92dep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=60620 lr=0 "
    "mr=5 c=da5b157f5c66869b",
    "stencil2d/double/retain0 gc=325660 gs=69440 so=50869 sp=37413 se=21388 "
    "hp=0 at=437 fl=18576 co=0 t=0x1.9454e4760e0dcp-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.d4d5b4f4fed36p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1f2e17fe61969p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2ebb9557d92dep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=60620 lr=0 "
    "mr=5 c=da5b157f5c66869b",
    "stencil2d/double/npb64 gc=334576 gs=70656 so=51848 sp=38238 se=21726 "
    "hp=0 at=541 fl=18576 co=0 t=0x1.747423f720181p-15 "
    "GLB=0x1.18159cf2ac663p-17 ESC=0x1.4695a1159545bp-17 "
    "MCC=0x1.16dae91907dd7p-17 MM=0x1.3ec0e47436608p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1d89844700767p-17 mpl=0x1p+0 r=0 pd=0 it=30 ch=31 pu=65304 lr=0 "
    "mr=24 c=da5b157f5c66869b",
    "stencil2d/double/npb32_pm2 gc=345664 gs=72192 so=53054 sp=31056 "
    "se=22142 hp=0 at=679 fl=18576 co=0 t=0x1.7b08c3cd97158p-15 "
    "GLB=0x1.1831e138cf1b1p-17 ESC=0x1.2ecd8c65b412ap-17 "
    "MCC=0x1.17355d2caa205p-17 MM=0x1.6637084940427p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.27b73c21eec57p-17 mpl=0x1p+0 r=0 pd=0 it=60 ch=61 pu=71160 lr=0 "
    "mr=48 c=da5b157f5c66869b",
    "stencil2d/double/lrt7 gc=325660 gs=69440 so=50869 sp=37413 se=21388 "
    "hp=0 at=437 fl=18576 co=0 t=0x1.9454e4760e0dcp-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.d4d5b4f4fed36p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1f2e17fe61969p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2ebb9557d92dep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=60620 lr=0 "
    "mr=5 c=da5b157f5c66869b",
    "stencil2d/double/no_long_rows gc=325660 gs=69440 so=50869 sp=37413 "
    "se=21388 hp=0 at=437 fl=18576 co=0 t=0x1.9454e4760e0dcp-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.d4d5b4f4fed36p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1f2e17fe61969p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.2ebb9557d92dep-17 mpl=0x1p+0 r=0 pd=0 it=8 ch=9 pu=60620 lr=0 "
    "mr=5 c=da5b157f5c66869b",
    "stencil2d/double/pool16k gc=431568 gs=120128 so=81083 sp=64805 "
    "se=36492 hp=0 at=437 fl=32272 co=0 t=0x1.04bb44278122p-14 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.d4868f63d0d8dp-17 "
    "ESC=0x1.d4d5b4f4fed36p-17 MCC=0x1.16934d3427688p-17 "
    "MM=0x1.1f2e17fe61969p-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.2ebb9557d92dep-17 "
    "mpl=0x1p+0 r=1 pd=6 it=14 ch=9 pu=60620 lr=0 mr=5 c=da5b157f5c66869b",
    "stencil2d/double/ept4_retain2 gc=325884 gs=69472 so=52736 sp=37685 "
    "se=21456 hp=0 at=458 fl=18576 co=0 t=0x1.91ce0c61bd5e7p-15 "
    "GLB=0x1.1800e258d736dp-17 ESC=0x1.d554678b84c55p-17 "
    "MCC=0x1.16934d3427688p-17 MM=0x1.1f2e17fe61969p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.24218270107ecp-17 mpl=0x1p+0 r=0 pd=0 it=15 ch=16 pu=60844 lr=0 "
    "mr=5 c=da5b157f5c66869b",
    "stencil3d/double/default gc=679164 gs=115776 so=108737 sp=93874 "
    "se=45061 hp=0 at=572 fl=40576 co=0 t=0x1.9cb4b996f377fp-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.e2ed3a66e3916p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.2995b2214110ep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.373e797621d14p-17 mpl=0x1p+0 r=0 pd=0 it=13 ch=14 pu=128088 "
    "lr=0 mr=9 c=6ca6539353a8ea3f",
    "stencil3d/double/static_bits gc=679164 gs=115776 so=108737 sp=102448 "
    "se=45061 hp=0 at=572 fl=40576 co=0 t=0x1.9cb4b996f377fp-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.e2ed3a66e3916p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.2995b2214110ep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.373e797621d14p-17 mpl=0x1p+0 r=0 pd=0 it=13 ch=14 pu=128088 "
    "lr=0 mr=9 c=6ca6539353a8ea3f",
    "stencil3d/double/retain0 gc=679164 gs=115776 so=108737 sp=93874 "
    "se=45061 hp=0 at=572 fl=40576 co=0 t=0x1.9cb4b996f377fp-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.e2ed3a66e3916p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.2995b2214110ep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.373e797621d14p-17 mpl=0x1p+0 r=0 pd=0 it=13 ch=14 pu=128088 "
    "lr=0 mr=9 c=6ca6539353a8ea3f",
    "stencil3d/double/npb64 gc=702240 gs=117760 so=111396 sp=85656 se=45966 "
    "hp=0 at=745 fl=40576 co=0 t=0x1.80eb673c5aca8p-15 "
    "GLB=0x1.1891fc8dab822p-17 ESC=0x1.4a13dca1a4128p-17 "
    "MCC=0x1.1717367b740ap-17 MM=0x1.6a72b6f30d92cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.1f7dd65399f87p-17 mpl=0x1p+0 r=0 pd=0 it=50 ch=51 pu=140008 "
    "lr=0 mr=40 c=6ca6539353a8ea3f",
    "stencil3d/double/npb32_pm2 gc=732048 gs=120320 so=114818 sp=89942 "
    "se=47130 hp=0 at=978 fl=40576 co=0 t=0x1.96b6b302f3f72p-15 "
    "GLB=0x1.18c119029005p-17 ESC=0x1.53f0f50673166p-17 "
    "MCC=0x1.17adf7f182798p-17 MM=0x1.acec6d5e6e65ep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.298e58b2dbe1ep-17 mpl=0x1p+0 r=0 pd=0 it=100 ch=102 pu=155448 "
    "lr=0 mr=80 c=6ca6539353a8ea3f",
    "stencil3d/double/lrt7 gc=876112 gs=303008 so=91046 sp=708232 se=95652 "
    "hp=0 at=7638 fl=40576 co=0 t=0x1.11e1fec0ed584p-14 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.d35018fb17eb4p-17 "
    "MCC=0x1.19b06c212d55fp-17 MM=0x1.93625f3d97569p-17 "
    "PM=0x1.b9b48dab38d6fp-17 SM=0x0p+0 CC=0x1.3c896431905b3p-17 "
    "mpl=0x1.c00140ef72a69p-1 r=0 pd=0 it=13 ch=1747 pu=265400 lr=1512 "
    "mr=433 c=6ca6539353a8ea3f",
    "stencil3d/double/no_long_rows gc=679164 gs=115776 so=108737 sp=93874 "
    "se=45061 hp=0 at=572 fl=40576 co=0 t=0x1.9cb4b996f377fp-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.e2ed3a66e3916p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.2995b2214110ep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.373e797621d14p-17 mpl=0x1p+0 r=0 pd=0 it=13 ch=14 pu=128088 "
    "lr=0 mr=9 c=6ca6539353a8ea3f",
    "stencil3d/double/pool16k gc=1062160 gs=263232 so=221865 sp=215508 "
    "se=101617 hp=0 at=572 fl=93036 co=0 t=0x1.4613b15706046p-14 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.db760dd6a082ep-17 "
    "ESC=0x1.e2ed3a66e3916p-17 ESC=0x1.e2549685c1c08p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.2995b2214110ep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.373e797621d14p-17 mpl=0x1p+0 r=2 pd=16 it=29 ch=14 pu=128088 "
    "lr=0 mr=9 c=6ca6539353a8ea3f",
    "stencil3d/double/ept4_retain2 gc=679548 gs=116032 so=111971 sp=89928 "
    "se=45211 hp=0 at=608 fl=40576 co=0 t=0x1.98fe4df01e8aap-15 "
    "GLB=0x1.186f1fd0c4f86p-17 ESC=0x1.e32fd7e33711p-17 "
    "MCC=0x1.16a2608cc273ap-17 MM=0x1.2995b2214110ep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.28222d5e7a9c9p-17 mpl=0x1p+0 r=0 pd=0 it=25 ch=26 pu=128472 "
    "lr=0 mr=9 c=6ca6539353a8ea3f",
    "blockdense/double/default gc=2789748 gs=170360 so=548158 sp=465862 "
    "se=232763 hp=0 at=454 fl=216874 co=0 t=0x1.d38af381ce1a9p-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.423e0494f868dp-16 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.6983e479867dep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3151f75cf567cp-17 mpl=0x1p+0 r=0 pd=0 it=71 ch=74 pu=488648 "
    "lr=0 mr=16 c=aa09d8d5a90d80cd",
    "blockdense/double/static_bits gc=2789748 gs=170360 so=548158 sp=472648 "
    "se=232763 hp=0 at=454 fl=216874 co=0 t=0x1.d56804ce10f99p-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.45f8272d7e26dp-16 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.6983e479867dep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3151f75cf567cp-17 mpl=0x1p+0 r=0 pd=0 it=71 ch=74 pu=488648 "
    "lr=0 mr=16 c=aa09d8d5a90d80cd",
    "blockdense/double/retain0 gc=3019748 gs=172280 so=566039 sp=474454 "
    "se=235644 hp=0 at=493 fl=216874 co=0 t=0x1.d97d6b96b4566p-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.3b7b888f8c68ep-16 "
    "MCC=0x1.17447085452b8p-17 MM=0x1.6bf769c1bc2ep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.53a59c55bd426p-17 mpl=0x1p+0 r=0 pd=0 it=55 ch=63 pu=603472 "
    "lr=0 mr=52 c=2cf5392cb51e4684",
    "blockdense/double/npb64 gc=3122284 gs=172056 so=569471 sp=487346 "
    "se=239868 hp=0 at=581 fl=216874 co=0 t=0x1.ac28f2a3661eap-15 "
    "GLB=0x1.1882e9351077p-17 ESC=0x1.cdd02ab603d29p-17 "
    "MCC=0x1.1779343b63d28p-17 MM=0x1.6b80b167f7363p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4756d0ff29285p-17 mpl=0x1p+0 r=0 pd=0 it=73 ch=83 pu=654744 "
    "lr=0 mr=66 c=f2677c0acbd2a64b",
    "blockdense/double/npb32_pm2 gc=3544176 gs=176216 so=621717 sp=505651 "
    "se=257324 hp=0 at=957 fl=216874 co=0 t=0x1.a3a4a2d2cc16dp-15 "
    "GLB=0x1.190c79bd973ccp-17 ESC=0x1.ac9bdefe3c0ecp-17 "
    "MCC=0x1.186e2e9b3b47bp-17 MM=0x1.6b591e9f6038ep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4522e554c18f4p-17 mpl=0x1.57e607f03dd66p-1 r=0 pd=0 it=146 "
    "ch=165 pu=866580 lr=0 mr=131 c=a42066b3cf900ec4",
    "blockdense/double/lrt7 gc=2920932 gs=1493592 so=185827 sp=216874 "
    "se=164899 hp=0 at=19448 fl=216874 co=5899776 t=0x1.08212775e0c3p-14 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.888d105231baap-17 "
    "MCC=0x1.19723c53adc8p-17 MM=0x0p+0 PM=0x0p+0 SM=0x1.9905c382a096cp-16 "
    "CC=0x1.54e14164eb7bdp-17 mpl=0x1.85da3fb4d8d45p-1 r=0 pd=0 it=0 "
    "ch=4862 pu=667344 lr=4662 mr=200 c=f9eeda05d680d4d8",
    "blockdense/double/no_long_rows gc=2789748 gs=170360 so=548158 "
    "sp=465862 se=232763 hp=0 at=454 fl=216874 co=0 t=0x1.d38af381ce1a9p-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.423e0494f868dp-16 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.6983e479867dep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3151f75cf567cp-17 mpl=0x1p+0 r=0 pd=0 it=71 ch=74 pu=488648 "
    "lr=0 mr=16 c=aa09d8d5a90d80cd",
    "blockdense/double/pool16k gc=4296228 gs=369944 so=1003118 sp=895430 "
    "se=459989 hp=0 at=454 fl=430510 co=0 t=0x1.146dc139a020dp-13 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.3b964905a235fp-16 "
    "ESC=0x1.4000e268f6d78p-16 ESC=0x1.3f2e49ce4c31cp-16 "
    "ESC=0x1.423e0494f868dp-16 ESC=0x1.4192ad8c7f927p-16 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.6983e479867dep-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.3151f75cf567cp-17 mpl=0x1p+0 r=4 pd=54 it=125 ch=74 pu=488648 "
    "lr=0 mr=16 c=aa09d8d5a90d80cd",
    "blockdense/double/ept4_retain2 gc=2791636 gs=172280 so=570609 "
    "sp=501232 se=240767 hp=0 at=631 fl=216874 co=0 t=0x1.d8a3ca9aeb9a7p-15 "
    "GLB=0x1.181d269ef9ebcp-17 ESC=0x1.517fee3395577p-16 "
    "MCC=0x1.16bcc267d1c72p-17 MM=0x1.40f1d44a69f4ap-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.4fc390b34e134p-17 mpl=0x1.999ae3c33e3e3p-1 r=0 pd=0 it=128 "
    "ch=133 pu=490536 lr=0 mr=16 c=aa09d8d5a90d80cd",
    "rmat10/double/default gc=3575748 gs=126500 so=550909 sp=484176 "
    "se=211143 hp=0 at=764 fl=195472 co=0 t=0x1.068d10f2812c4p-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.a360fddf1af7p-16 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.76dd2deebcc7cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.47adf8d76980cp-17 mpl=0x1p+0 r=0 pd=0 it=58 ch=59 pu=794172 "
    "lr=0 mr=13 c=bed5f13d5240924e",
    "rmat10/double/static_bits gc=3575748 gs=126500 so=550909 sp=534749 "
    "se=211143 hp=0 at=764 fl=195472 co=0 t=0x1.0cf6429bdd5fep-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.bd05c4848bc5cp-16 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.76dd2deebcc7cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.47adf8d76980cp-17 mpl=0x1p+0 r=0 pd=0 it=58 ch=59 pu=794172 "
    "lr=0 mr=13 c=bed5f13d5240924e",
    "rmat10/double/retain0 gc=3854064 gs=132132 so=578914 sp=514413 "
    "se=217348 hp=0 at=867 fl=195472 co=0 t=0x1.2c905abbe4ba6p-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.94b56649fdc52p-16 "
    "MCC=0x1.1740abaf1e68bp-17 MM=0x1.78456b7868b62p-17 "
    "PM=0x1.4ec114dd5f215p-17 SM=0x0p+0 CC=0x1.4466ec1bf45c4p-17 mpl=0x1p+0 "
    "r=0 pd=0 it=56 ch=67 pu=933464 lr=0 mr=51 c=d1829bffd91e2949",
    "rmat10/double/npb64 gc=3863956 gs=128708 so=571461 sp=452086 se=218514 "
    "hp=0 at=879 fl=195472 co=0 t=0x1.0389d9e10c27p-14 "
    "GLB=0x1.187dba8e9b2b3p-17 ESC=0x1.a59cd57e783fbp-17 "
    "MCC=0x1.172dd3805c9acp-17 MM=0x1.7ccd1bc9b9371p-17 "
    "PM=0x1.5398cfc3bada7p-17 SM=0x0p+0 CC=0x1.76a07fed7d20cp-17 mpl=0x1p+0 "
    "r=0 pd=0 it=66 ch=75 pu=938316 lr=0 mr=46 c=d06d48c2abaa485a",
    "rmat10/double/npb32_pm2 gc=4131376 gs=146052 so=602679 sp=480655 "
    "se=230568 hp=0 at=1134 fl=195472 co=65024 t=0x1.01267c55f4431p-14 "
    "GLB=0x1.189895046f57p-17 ESC=0x1.a5f8b1791240cp-17 "
    "MCC=0x1.17a66e4534f3fp-17 MM=0x1.7c1494cd46bbfp-17 PM=0x0p+0 "
    "SM=0x1.605655579e5d7p-17 CC=0x1.569143c806734p-17 mpl=0x1p+0 r=0 pd=0 "
    "it=114 ch=135 pu=1072704 lr=0 mr=78 c=621e258081d20145",
    "rmat10/double/lrt7 gc=3525944 gs=737956 so=227112 sp=846594 se=174059 "
    "hp=0 at=11572 fl=195472 co=1936640 t=0x1.6b6b0ba9985a4p-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.9cc7ce1317b2p-17 "
    "MCC=0x1.193f5b08a2826p-17 MM=0x1.803f469ae619ap-17 "
    "PM=0x1.ce689fe4f1cedp-17 SM=0x1.574236db3bdfcp-16 "
    "CC=0x1.8fbaeed069493p-17 mpl=0x1.7e1f025fa4a5p-1 r=0 pd=0 it=15 "
    "ch=2795 pu=831800 lr=2499 mr=373 c=4e7e852702e38ff5",
    "rmat10/double/no_long_rows gc=3575748 gs=126500 so=550909 sp=484176 "
    "se=211143 hp=0 at=764 fl=195472 co=0 t=0x1.068d10f2812c4p-14 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.a360fddf1af7p-16 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.76dd2deebcc7cp-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.47adf8d76980cp-17 mpl=0x1p+0 r=0 pd=0 it=58 ch=59 pu=794172 "
    "lr=0 mr=13 c=bed5f13d5240924e",
    "rmat10/double/pool16k gc=4946584 gs=275064 so=959925 sp=934560 "
    "se=415356 hp=0 at=764 fl=387432 co=0 t=0x1.5d5b7aeaf8592p-13 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.17eeaca790bb6p-16 "
    "ESC=0x1.5d6329b0a74ccp-16 ESC=0x1.52165898499aep-16 "
    "ESC=0x1.73df757354bbp-16 ESC=0x1.a360fddf1af7p-16 "
    "ESC=0x1.955fef29e7b9ap-16 MCC=0x1.16b173e55d7ecp-17 "
    "MM=0x1.76dd2deebcc7cp-17 PM=0x0p+0 SM=0x0p+0 CC=0x1.47adf8d76980cp-17 "
    "mpl=0x1p+0 r=5 pd=49 it=107 ch=59 pu=794172 lr=0 mr=13 "
    "c=bed5f13d5240924e",
    "rmat10/double/ept4_retain2 gc=3577412 gs=128324 so=574305 sp=456419 "
    "se=220097 hp=0 at=920 fl=195472 co=0 t=0x1.fbea415d34a06p-15 "
    "GLB=0x1.1869f12a4fac8p-17 ESC=0x1.9417bb9993fa4p-16 "
    "MCC=0x1.16b173e55d7ecp-17 MM=0x1.4452ca4629945p-17 PM=0x0p+0 SM=0x0p+0 "
    "CC=0x1.540b5eebd3cdap-17 mpl=0x1p+0 r=0 pd=0 it=115 ch=111 pu=795836 "
    "lr=0 mr=13 c=bed5f13d5240924e",
    "longrows/double/default gc=2830344 gs=691076 so=348076 sp=322394 "
    "se=154035 hp=0 at=2894 fl=137072 co=704256 t=0x1.bbfffaa5ad0a6p-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.cfe59ec903396p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.33cbf4f2a95dap-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.72eaa0fb38854p-15 "
    "CC=0x1.3267ec0ea0054p-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=96 pu=659060 "
    "lr=12 mr=26 c=08e2dc06372b536e",
    "longrows/double/static_bits gc=2830344 gs=691076 so=348076 sp=359202 "
    "se=154035 hp=0 at=2894 fl=137072 co=704256 t=0x1.bbfffaa5ad0a6p-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.cfe59ec903396p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.33cbf4f2a95dap-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.72eaa0fb38854p-15 "
    "CC=0x1.3267ec0ea0054p-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=96 pu=659060 "
    "lr=12 mr=26 c=08e2dc06372b536e",
    "longrows/double/retain0 gc=2830344 gs=691076 so=348076 sp=322394 "
    "se=154035 hp=0 at=2894 fl=137072 co=704256 t=0x1.bbfffaa5ad0a6p-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.cfe59ec903396p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.33cbf4f2a95dap-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.72eaa0fb38854p-15 "
    "CC=0x1.3267ec0ea0054p-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=96 pu=659060 "
    "lr=12 mr=26 c=08e2dc06372b536e",
    "longrows/double/npb64 gc=2899164 gs=950276 so=355783 sp=328824 "
    "se=156612 hp=0 at=3593 fl=137072 co=1714944 t=0x1.36465dc64a0eap-13 "
    "GLB=0x1.18817f64c1edfp-17 ESC=0x1.ec8e2d9cdd5b7p-17 "
    "MCC=0x1.17cfe378df52ap-17 MM=0x1.8e5930dd95631p-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.57b7f7f7ba1c1p-14 "
    "CC=0x1.4c76641bd9f24p-17 mpl=0x1.7f1023e03537bp-1 r=0 pd=0 it=221 "
    "ch=261 pu=695324 lr=12 mr=89 c=8f4bb84b0d7eedb3",
    "longrows/double/npb32_pm2 gc=2936840 gs=1232644 so=359318 sp=333649 "
    "se=157794 hp=0 at=4509 fl=137072 co=2811648 t=0x1.9629ee9290ad4p-13 "
    "GLB=0x1.18aaf4986c4cap-17 ESC=0x1.0a25b658d8bb2p-16 "
    "MCC=0x1.18f217e287e93p-17 MM=0x1.fdfac9ce546d1p-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.011d2bb7e8823p-13 "
    "CC=0x1.5df1f37ca68p-17 mpl=0x1.c00d5ebc19fa8p-1 r=0 pd=0 it=441 ch=481 "
    "pu=716648 lr=12 mr=166 c=0def481b443e6d18",
    "longrows/double/lrt7 gc=2830344 gs=691076 so=348076 sp=322394 "
    "se=154035 hp=0 at=2894 fl=137072 co=704256 t=0x1.bbfffaa5ad0a6p-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.cfe59ec903396p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.33cbf4f2a95dap-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.72eaa0fb38854p-15 "
    "CC=0x1.3267ec0ea0054p-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=96 pu=659060 "
    "lr=12 mr=26 c=08e2dc06372b536e",
    "longrows/double/no_long_rows gc=3410988 gs=663620 so=502972 sp=408206 "
    "se=203871 hp=0 at=2882 fl=137072 co=589824 t=0x1.b3e9a1b91dabap-14 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.18be15240a9c6p-16 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.33cbf4f2a95dap-17 "
    "PM=0x1.abf80e4369777p-17 SM=0x1.4b18067e336ffp-15 "
    "CC=0x1.3267ec0ea0054p-17 mpl=0x1p+0 r=0 pd=0 it=68 ch=93 pu=949256 "
    "lr=0 mr=26 c=4f452db41fe01fb3",
    "longrows/double/pool16k gc=5080528 gs=2136292 so=908568 sp=846880 "
    "se=435481 hp=0 at=2894 fl=389482 co=737536 t=0x1.8819f6665a44fp-13 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.ce6632bfbe154p-17 "
    "ESC=0x1.cf1b8b77760fap-17 ESC=0x1.cce625e81d261p-17 "
    "ESC=0x1.cf6c9373b76b9p-17 ESC=0x1.cfe59ec903396p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.33cbf4f2a95dap-17 "
    "PM=0x1.aef6f732e217ep-17 SM=0x1.72eaa0fb38854p-15 "
    "SM=0x1.b3e58cd299a2cp-16 CC=0x1.3267ec0ea0054p-17 mpl=0x1p+0 r=5 "
    "pd=157 it=212 ch=96 pu=659060 lr=12 mr=26 c=08e2dc06372b536e",
    "longrows/double/ept4_retain2 gc=2831100 gs=845060 so=348076 sp=330842 "
    "se=159411 hp=0 at=2978 fl=137072 co=1307904 t=0x1.103187dc6a13dp-13 "
    "GLB=0x1.1862677e0226fp-17 ESC=0x1.cfe59ec903396p-17 "
    "MCC=0x1.16e272c55563p-17 MM=0x1.33cbf4f2a95dap-17 "
    "PM=0x1.ce7e75a8888f9p-17 SM=0x1.16fd47336c841p-14 "
    "CC=0x1.49b96083b06bdp-17 mpl=0x1p+0 r=0 pd=0 it=56 ch=117 pu=659816 "
    "lr=12 mr=26 c=08e2dc06372b536e",
};
// clang-format on

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over C's shape, structure and value bits.
template <class T>
std::uint64_t hash_csr(const Csr<T>& c) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  mix(&c.rows, sizeof c.rows);
  mix(&c.cols, sizeof c.cols);
  mix(c.row_ptr.data(), c.row_ptr.size() * sizeof(c.row_ptr[0]));
  mix(c.col_idx.data(), c.col_idx.size() * sizeof(c.col_idx[0]));
  mix(c.values.data(), c.values.size() * sizeof(T));
  return h;
}

/// One multiply as a single line of space-separated `name=value` fields.
template <class T>
std::string row_of(const std::string& label, const SpgemmStats& s,
                   const Csr<T>& c) {
  const sim::MetricCounters& m = s.metrics;
  std::ostringstream os;
  os << label << " gc=" << m.global_bytes_coalesced
     << " gs=" << m.global_bytes_scattered << " so=" << m.scratch_ops
     << " sp=" << m.sort_pass_elements << " se=" << m.scan_elements
     << " hp=" << m.hash_probes << " at=" << m.atomic_ops
     << " fl=" << m.flops << " co=" << m.compute_ops
     << " t=" << hex(s.sim_time_s);
  for (const auto& [stage, t] : s.stage_times_s)
    os << ' ' << stage << '=' << hex(t);
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(hash_csr(c)));
  os << " mpl=" << hex(s.multiprocessor_load) << " r=" << s.restarts
     << " pd=" << s.pool_denials << " it=" << s.esc_iterations
     << " ch=" << s.chunks_created << " pu=" << s.pool_used_bytes
     << " lr=" << s.long_row_chunks << " mr=" << s.merged_rows
     << " c=" << hash;
  return os.str();
}

/// `row` as the table entry that pins it: adjacent string literals broken
/// between fields, each line within 80 columns.
std::string as_table_entry(const std::string& row) {
  std::vector<std::string> lines(1);
  std::istringstream fields(row);
  std::string f;
  while (fields >> f) {
    if (!lines.back().empty() && lines.back().size() + f.size() > 70)
      lines.emplace_back();
    lines.back() += f + ' ';
  }
  lines.back().pop_back();
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i)
    out += "    \"" + lines[i] + (i + 1 < lines.size() ? "\"\n" : "\",\n");
  return out;
}

template <class T>
std::vector<std::pair<std::string, Csr<T>>> generator_zoo() {
  std::vector<std::pair<std::string, Csr<T>>> zoo;
  zoo.emplace_back("uniform", gen_uniform_random<T>(300, 300, 6.0, 2.0, 301));
  zoo.emplace_back("local",
                   gen_uniform_local<T>(300, 300, 8.0, 2.0, 40, 302));
  zoo.emplace_back("powerlaw",
                   gen_powerlaw<T>(300, 300, 5.0, 1.6, 120, 303));
  zoo.emplace_back("banded", gen_banded<T>(256, 4, 304));
  zoo.emplace_back("stencil2d", gen_stencil_2d<T>(20, 20, 305));
  zoo.emplace_back("stencil3d", gen_stencil_3d<T>(8, 8, 8, 306));
  zoo.emplace_back("blockdense", gen_block_dense<T>(200, 200, 12, 2, 307));
  zoo.emplace_back("rmat10", gen_rmat<T>(10, 4.0, 0.57, 0.19, 0.19, 308));
  // Three rows longer than the default threshold (the temp capacity,
  // 2048): pointer chunks under every Config that keeps long rows on.
  zoo.emplace_back(
      "longrows",
      inject_long_rows(gen_uniform_random<T>(2500, 2500, 3.0, 1.0, 309), 3,
                       2200, 310));
  return zoo;
}

std::vector<std::pair<std::string, Config>> config_sweep() {
  std::vector<std::pair<std::string, Config>> sweep;
  sweep.emplace_back("default", Config{});
  Config c;
  c.dynamic_bits = false;
  sweep.emplace_back("static_bits", c);
  c = Config{};
  c.retain_per_thread = 0;
  sweep.emplace_back("retain0", c);
  c = Config{};
  c.nnz_per_block = 64;
  sweep.emplace_back("npb64", c);
  c = Config{};
  c.nnz_per_block = 32;
  c.path_merge_max_chunks = 2;
  sweep.emplace_back("npb32_pm2", c);
  c = Config{};
  c.long_row_threshold = 7;
  sweep.emplace_back("lrt7", c);
  c = Config{};
  c.long_row_handling = false;
  sweep.emplace_back("no_long_rows", c);
  c = Config{};
  c.pool_override_bytes = 16 * 1024;
  sweep.emplace_back("pool16k", c);
  c = Config{};
  c.elements_per_thread = 4;
  c.retain_per_thread = 2;
  sweep.emplace_back("ept4_retain2", c);
  return sweep;
}

/// How many multiplies of the sweep reach each rare path — the table only
/// guards the charges the sweep actually executes.
struct Coverage {
  int multiplies = 0;
  int restarts = 0;
  int path_merge = 0;
  int search_merge = 0;
  int pointer_chunks = 0;
};

template <class T>
void run_sweep(const char* type, std::vector<std::string>& rows,
               Coverage& cov) {
  for (const auto& [input, a] : generator_zoo<T>()) {
    for (const auto& [config, base] : config_sweep()) {
      trace::TraceSession session;
      Config cfg = base;
      cfg.trace = &session;
      SpgemmStats stats;
      const Csr<T> c = multiply(a, a, cfg, &stats);
      rows.push_back(row_of(input + "/" + type + "/" + config, stats, c));
      const trace::CountersSnapshot k = session.counters_snapshot();
      ++cov.multiplies;
      cov.restarts += stats.restarts > 0;
      cov.path_merge += k.merge_case_rows[1] > 0;
      cov.search_merge += k.merge_case_rows[2] > 0;
      cov.pointer_chunks += stats.long_row_chunks > 0;
    }
  }
}

TEST(ModeledClock, SweepMatchesThePinnedTable) {
  std::vector<std::string> rows;
  Coverage cov;
  run_sweep<float>("float", rows, cov);
  run_sweep<double>("double", rows, cov);

  std::string should_read;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i < std::size(kPinned) && rows[i] == kPinned[i]) continue;
    ++mismatches;
    should_read += as_table_entry(rows[i]);
  }
  EXPECT_EQ(mismatches, 0u) << "rows as they should read:\n" << should_read;
  EXPECT_EQ(std::size(kPinned), rows.size());

  std::cout << "coverage: " << cov.multiplies << " multiplies, restarts in "
            << cov.restarts << ", Path Merge in " << cov.path_merge
            << ", Search Merge in " << cov.search_merge
            << ", pointer chunks in " << cov.pointer_chunks << '\n';
  EXPECT_GT(cov.restarts, 0);
  EXPECT_GT(cov.path_merge, 0);
  EXPECT_GT(cov.search_merge, 0);
  EXPECT_GT(cov.pointer_chunks, 0);
}

}  // namespace
}  // namespace acs
