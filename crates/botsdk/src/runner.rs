//! Driving bots: deterministic single-threaded rounds or real threads.
//!
//! The deterministic [`BotRunner::run_until_idle`] is what the measurement
//! pipeline uses: it drains every bot's gateway queue in rounds, in a fixed
//! order, until the system quiesces — so a honeypot campaign is exactly
//! reproducible. [`BotRunner::run_threaded_burst`] exists to show the same
//! bots work when each backend runs on its own thread, as real ones do.

use crate::behavior::{Behavior, BotApi};
use discord_sim::gateway::GatewayEvent;
use discord_sim::{Platform, PlatformResult, UserId};
use netsim::Network;
use std::sync::mpsc::Receiver;

/// One connected bot: account + gateway + backend behaviour.
pub struct Bot {
    /// The bot's account.
    pub user: UserId,
    /// Trace label of the backend.
    pub label: String,
    behavior: Box<dyn Behavior>,
    rx: Receiver<GatewayEvent>,
    api: BotApi,
}

impl Bot {
    /// Connect a bot account's gateway and attach a behaviour.
    pub fn connect(
        platform: Platform,
        net: Network,
        user: UserId,
        label: &str,
        behavior: Box<dyn Behavior>,
    ) -> PlatformResult<Bot> {
        let rx = platform.connect_gateway(user)?;
        let api = BotApi::new(platform, net, user, label);
        Ok(Bot {
            user,
            label: label.to_string(),
            behavior,
            rx,
            api,
        })
    }

    /// Process all currently queued events; returns how many were handled.
    pub fn poll(&mut self) -> usize {
        let mut handled = 0;
        while let Ok(event) = self.rx.try_recv() {
            self.behavior.on_event(&event, &mut self.api);
            handled += 1;
        }
        handled
    }

    /// Immutable access to the behaviour (e.g. for descriptions).
    pub fn behavior(&self) -> &dyn Behavior {
        self.behavior.as_ref()
    }
}

/// Drives a fleet of bots.
#[derive(Default)]
pub struct BotRunner {
    bots: Vec<Bot>,
}

impl BotRunner {
    /// An empty runner.
    pub fn new() -> BotRunner {
        BotRunner::default()
    }

    /// Add a connected bot.
    pub fn add(&mut self, bot: Bot) {
        self.bots.push(bot);
    }

    /// Number of bots under management.
    pub fn len(&self) -> usize {
        self.bots.len()
    }

    /// True when no bots are registered.
    pub fn is_empty(&self) -> bool {
        self.bots.is_empty()
    }

    /// Access the managed bots.
    pub fn bots(&self) -> &[Bot] {
        &self.bots
    }

    /// Deterministic drive: repeat rounds over all bots (in insertion
    /// order) until a full round processes zero events. Returns total events
    /// processed. A round cap defuses accidental reply-loops between bots.
    pub fn run_until_idle(&mut self) -> usize {
        let mut total = 0;
        for _round in 0..1000 {
            let mut round_handled = 0;
            for bot in &mut self.bots {
                round_handled += bot.poll();
            }
            total += round_handled;
            if round_handled == 0 {
                return total;
            }
        }
        total
    }

    /// Threaded drive: every bot polls its queue on its own thread until the
    /// queue stays empty for `quiesce_polls` consecutive polls. Returns the
    /// total events processed. Determinism is *not* guaranteed here — that
    /// is the point of the test that uses it.
    pub fn run_threaded_burst(&mut self, quiesce_polls: u32) -> usize {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for bot in &mut self.bots {
                handles.push(scope.spawn(move || {
                    let mut handled = 0;
                    let mut idle_polls = 0;
                    while idle_polls < quiesce_polls {
                        let n = bot.poll();
                        handled += n;
                        if n == 0 {
                            idle_polls += 1;
                            std::thread::yield_now();
                        } else {
                            idle_polls = 0;
                        }
                    }
                    handled
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("bot thread panicked"))
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::BenignBehavior;
    use crate::command::{CommandBot, CommandSpec};
    use discord_sim::oauth::InviteUrl;
    use discord_sim::{GuildVisibility, Permissions};
    use netsim::clock::VirtualClock;

    fn setup() -> (
        Platform,
        Network,
        UserId,
        discord_sim::GuildId,
        discord_sim::ChannelId,
    ) {
        let clock = VirtualClock::new();
        let net = Network::with_clock(1, clock.clone());
        let platform = Platform::new(clock);
        let owner = platform.register_user("owner", "o@x.y");
        let guild = platform
            .create_guild(owner, "g", GuildVisibility::Public)
            .unwrap();
        let channel = platform.default_channel(guild).unwrap();
        (platform, net, owner, guild, channel)
    }

    fn connect_bot(
        platform: &Platform,
        net: &Network,
        owner: UserId,
        guild: discord_sim::GuildId,
        name: &str,
        behavior: Box<dyn Behavior>,
    ) -> Bot {
        let app = platform.register_bot_application(owner, name).unwrap();
        let bot =
            Bot::connect(platform.clone(), net.clone(), app.bot_user, name, behavior).unwrap();
        let invite = InviteUrl::bot(
            app.client_id,
            Permissions::SEND_MESSAGES
                | Permissions::VIEW_CHANNEL
                | Permissions::READ_MESSAGE_HISTORY,
        );
        platform.install_bot(owner, guild, &invite, true).unwrap();
        bot
    }

    #[test]
    fn runner_delivers_events_to_all_bots() {
        let (platform, net, owner, guild, channel) = setup();
        let mut runner = BotRunner::new();
        runner.add(connect_bot(
            &platform,
            &net,
            owner,
            guild,
            "A",
            Box::new(BenignBehavior::new("fun")),
        ));
        runner.add(connect_bot(
            &platform,
            &net,
            owner,
            guild,
            "B",
            Box::new(BenignBehavior::new("music")),
        ));
        assert_eq!(runner.len(), 2);

        platform
            .send_message(owner, channel, "!ping", vec![])
            .unwrap();
        let handled = runner.run_until_idle();
        // Both bots saw install events and the message; both replied "pong",
        // and each saw the other's reply.
        assert!(handled >= 4, "handled {handled}");
        let history = platform.read_history(owner, channel).unwrap();
        let pongs = history.iter().filter(|m| m.content == "pong").count();
        assert_eq!(pongs, 2);
    }

    #[test]
    fn runner_quiesces_no_reply_loops() {
        let (platform, net, owner, guild, channel) = setup();
        let mut runner = BotRunner::new();
        runner.add(connect_bot(
            &platform,
            &net,
            owner,
            guild,
            "A",
            Box::new(BenignBehavior::new("fun")),
        ));
        platform
            .send_message(owner, channel, "!ping", vec![])
            .unwrap();
        runner.run_until_idle();
        let after = runner.run_until_idle();
        assert_eq!(after, 0, "second run has nothing to do");
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let (platform, net, owner, guild, channel) = setup();
            let mut runner = BotRunner::new();
            for name in ["A", "B", "C"] {
                runner.add(connect_bot(
                    &platform,
                    &net,
                    owner,
                    guild,
                    name,
                    Box::new(BenignBehavior::new("fun")),
                ));
            }
            platform
                .send_message(owner, channel, "!help", vec![])
                .unwrap();
            runner.run_until_idle();
            platform
                .read_history(owner, channel)
                .unwrap()
                .iter()
                .map(|m| m.content.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn threaded_burst_processes_everything() {
        let (platform, net, owner, guild, channel) = setup();
        let mut runner = BotRunner::new();
        runner.add(connect_bot(
            &platform,
            &net,
            owner,
            guild,
            "mod",
            Box::new(CommandBot::new(vec![CommandSpec::reply("ping", "pong")])),
        ));
        runner.add(connect_bot(
            &platform,
            &net,
            owner,
            guild,
            "fun",
            Box::new(BenignBehavior::new("fun")),
        ));
        for _ in 0..5 {
            platform
                .send_message(owner, channel, "!ping", vec![])
                .unwrap();
        }
        let handled = runner.run_threaded_burst(3);
        assert!(
            handled >= 10,
            "both bots saw all five commands, got {handled}"
        );
        let history = platform.read_history(owner, channel).unwrap();
        let pongs = history.iter().filter(|m| m.content == "pong").count();
        assert_eq!(pongs, 10);
    }
}
