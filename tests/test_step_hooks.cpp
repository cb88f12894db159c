// StepHooks: ordered multi-subscriber semantics, removal by handle, and
// empty-subscriber handling — the observer surface TimeStepper and
// MultiDomainRunner expose as step_hooks().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/observability/step_hooks.hpp"

namespace asuca {
namespace {

TEST(StepHooks, FiresInSubscriptionOrder) {
    obs::StepHooks<int> hooks;
    std::vector<std::string> order;
    hooks.add([&](int v) { order.push_back("a" + std::to_string(v)); });
    hooks.add([&](int v) { order.push_back("b" + std::to_string(v)); });
    hooks.add([&](int v) { order.push_back("c" + std::to_string(v)); });
    hooks.notify(1);
    hooks.notify(2);
    EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "c1", "a2", "b2",
                                               "c2"}));
}

TEST(StepHooks, RemoveByHandleKeepsOthersFiring) {
    obs::StepHooks<> hooks;
    int a = 0, b = 0, c = 0;
    const auto ha = hooks.add([&] { ++a; });
    const auto hb = hooks.add([&] { ++b; });
    hooks.add([&] { ++c; });
    EXPECT_EQ(hooks.size(), 3u);

    EXPECT_TRUE(hooks.remove(hb));
    hooks.notify();
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(c, 1);

    // Unknown / already-removed handles are rejected, not UB.
    EXPECT_FALSE(hooks.remove(hb));
    EXPECT_FALSE(hooks.remove(0));
    EXPECT_TRUE(hooks.remove(ha));
    hooks.notify();
    EXPECT_EQ(a, 1);
    EXPECT_EQ(c, 2);
}

TEST(StepHooks, HandlesAreNeverReused) {
    obs::StepHooks<> hooks;
    const auto h1 = hooks.add([] {});
    EXPECT_TRUE(hooks.remove(h1));
    const auto h2 = hooks.add([] {});
    EXPECT_NE(h1, h2);
    EXPECT_NE(h2, 0u);
}

TEST(StepHooks, EmptyFunctionHoldsSlotButNeverFires) {
    obs::StepHooks<> hooks;
    const auto h = hooks.add(obs::StepHooks<>::Fn{});
    hooks.notify();  // must not throw on the empty std::function
    EXPECT_EQ(hooks.size(), 1u);
    EXPECT_TRUE(hooks.remove(h));
    EXPECT_TRUE(hooks.empty());
}

}  // namespace
}  // namespace asuca
