/// \file test_checked.cpp
/// \brief LEQ_CHECKED provenance instrumentation: cross-manager handle use
/// and off-thread bdd_manager calls must abort with the documented
/// diagnostic, and legal single-threaded use must be unaffected.
///
/// The suite is compiled into every build but only bites in checked builds
/// (-DLEQ_CHECKED=ON, as the CI tsan and asan+ubsan jobs configure): the
/// guards compile to nothing otherwise — the statements under EXPECT_DEATH
/// would run to completion instead of dying — so the suite skips.

#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#ifdef LEQ_CHECKED

#include <cstring>
#include <thread>

namespace {

using leq::bdd;
using leq::bdd_manager;

// death tests fork the process; "threadsafe" re-executes the binary so the
// child is in a well-defined single-threaded state before we spawn threads
class checked_death : public ::testing::Test {
protected:
    void SetUp() override {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

TEST(checked_build, legal_single_threaded_use_is_unaffected) {
    bdd_manager mgr(4);
    const bdd f = (mgr.var(0) & mgr.var(1)) | !mgr.var(2);
    const bdd g = mgr.exists(f, mgr.cube({0}));
    EXPECT_TRUE(f.valid());
    EXPECT_TRUE(g.valid());
    mgr.check_consistency();
    EXPECT_GE(mgr.checked_serial(), 1u);
}

TEST(checked_build, serials_are_distinct_and_increasing) {
    bdd_manager a(1);
    bdd_manager b(1);
    EXPECT_LT(a.checked_serial(), b.checked_serial());
}

TEST_F(checked_death, cross_manager_handle_aborts_with_diagnostic) {
    bdd_manager mine(4);
    bdd_manager other(4);
    const bdd f = mine.var(0);
    const bdd foreign = other.var(0);
    EXPECT_DEATH((void)mine.apply_and(f, foreign),
                 "cross-manager bdd handle.*apply_and");
}

TEST_F(checked_death, cross_manager_cube_in_exists_aborts) {
    bdd_manager mine(4);
    bdd_manager other(4);
    const bdd f = mine.var(1);
    const bdd foreign_cube = other.cube({1});
    EXPECT_DEATH((void)mine.exists(f, foreign_cube),
                 "cross-manager bdd handle.*exists");
}

TEST_F(checked_death, off_thread_operation_aborts_with_diagnostic) {
    EXPECT_DEATH(
        {
            bdd_manager mgr(4);
            // the manager belongs to the constructing thread; any public
            // operation from another thread must abort
            std::thread intruder([&mgr] { (void)mgr.var(0); });
            intruder.join();
        },
        "off-thread bdd_manager call.*var");
}

TEST_F(checked_death, off_thread_handle_release_aborts) {
    EXPECT_DEATH(
        {
            bdd_manager mgr(4);
            bdd f = mgr.var(0);
            // destroying a handle mutates the manager's external reference
            // counts, so it counts as a manager call too
            std::thread intruder([g = std::move(f)]() mutable {});
            intruder.join();
        },
        "off-thread bdd_manager call.*release");
}

TEST_F(checked_death, handle_release_underflow_aborts_with_diagnostic) {
    EXPECT_DEATH(
        {
            bdd_manager mgr(4);
            {
                bdd f = mgr.var(0) & mgr.var(1);
                // a bitwise duplicate bypasses bdd's reference counting:
                // destroying it releases f's one external reference, and
                // f's own destructor then underflows the count
                alignas(bdd) unsigned char raw[sizeof(bdd)];
                std::memcpy(raw, static_cast<const void*>(&f), sizeof(bdd));
                reinterpret_cast<bdd*>(raw)->~bdd();
            }
        },
        "release underflow.*released twice");
}

TEST(checked_build, one_manager_per_thread_is_legal) {
    // the batch-pool discipline: construct, use and destroy a manager
    // entirely on one worker thread — must not trip any guard
    std::thread worker([] {
        bdd_manager mgr(6);
        const bdd f = mgr.var(0) ^ mgr.var(5);
        EXPECT_EQ(mgr.support(f).size(), 2u);
    });
    worker.join();
}

} // namespace

#else // !LEQ_CHECKED

TEST(checked_build, requires_leq_checked) {
    GTEST_SKIP() << "configure with -DLEQ_CHECKED=ON to arm the provenance "
                    "guards (CI runs them in the tsan and asan+ubsan jobs)";
}

#endif
