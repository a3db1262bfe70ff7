//! Cross-crate flow: a bot listed on the site is discovered by the
//! crawler, its invite decoded, installed on the platform, and then
//! operated through the SDK — the whole ecosystem in one story.

use botsdk::{BenignBehavior, Bot, BotRunner};
use crawler::crawl::{crawl_listing, CrawlConfig};
use crawler::invite::InviteStatus;
use discord_sim::oauth::InviteUrl;
use discord_sim::{GuildVisibility, Permissions};
use netsim::http::Url;
use synth::{build_ecosystem, EcosystemConfig};

#[test]
fn listed_bot_can_be_discovered_and_installed() {
    let eco = build_ecosystem(&EcosystemConfig::test_scale(100, 21));

    // Discover via the crawler, exactly as the measurement does.
    let (crawled, _) = crawl_listing(&eco.net, &CrawlConfig::default());
    let target = crawled
        .iter()
        .find(|b| b.invite_status.is_valid())
        .expect("some bot has a valid invite");
    let InviteStatus::Valid { permissions, .. } = &target.invite_status else {
        unreachable!()
    };

    // A user who read the listing installs the bot into their own guild.
    let user = eco.platform.register_user("enduser#1", "e@x.y");
    let guild = eco
        .platform
        .create_guild(user, "my-server", GuildVisibility::Private)
        .expect("user exists");
    let invite_url = Url::parse(&target.scraped.invite_link).expect("valid link parses");
    let invite = InviteUrl::parse(&invite_url).expect("valid oauth link");
    assert_eq!(
        &invite.permissions, permissions,
        "crawler decoded what the page requests"
    );

    let bot_user = eco
        .platform
        .install_bot(user, guild, &invite, true)
        .expect("install succeeds");

    // The managed role carries exactly the requested permissions.
    let g = eco.platform.guild(guild).expect("guild");
    let member = g.member(bot_user).expect("bot is a member");
    let role = g.role(member.roles[0]).expect("managed role");
    assert_eq!(role.permissions, *permissions);

    // And the bot account works through the SDK.
    let bot = Bot::connect(
        eco.platform.clone(),
        eco.net.clone(),
        bot_user,
        "installed-bot",
        Box::new(BenignBehavior::new("fun")),
    )
    .expect("gateway connects");
    let mut runner = BotRunner::new();
    runner.add(bot);

    let channel = eco.platform.default_channel(guild).expect("has #general");
    eco.platform
        .send_message(user, channel, "!ping", vec![])
        .expect("user can chat");
    runner.run_until_idle();
    let history = eco
        .platform
        .read_history(user, channel)
        .expect("user reads");
    assert_eq!(history.last().expect("bot replied").content, "pong");
}

#[test]
fn consent_screen_matches_scraped_permissions() {
    let eco = build_ecosystem(&EcosystemConfig::test_scale(60, 22));
    let (crawled, _) = crawl_listing(&eco.net, &CrawlConfig::default());

    for bot in crawled
        .iter()
        .filter(|b| b.invite_status.is_valid())
        .take(10)
    {
        let InviteStatus::Valid { permissions, .. } = &bot.invite_status else {
            unreachable!()
        };
        // Fetch the consent screen the way a human would.
        let mut client = netsim::HttpClient::new(
            eco.net.clone(),
            netsim::ClientConfig::impolite("human-browser"),
        );
        let url = Url::parse(&bot.scraped.invite_link).expect("parses");
        let resp = client.get(url).expect("reachable");
        let page = resp.text();
        for name in permissions.names() {
            assert!(
                page.contains(name),
                "consent screen for {} missing {name}",
                bot.scraped.name
            );
        }
    }
}

#[test]
fn admin_bot_reads_channels_users_cannot() {
    // The §4.2 admin risk, across crates: install an admin bot from a
    // listing, lock a channel down, and watch the bot still read it.
    let eco = build_ecosystem(&EcosystemConfig::test_scale(100, 23));
    let admin_listing = eco
        .truth
        .valid_bots()
        .find(|b| {
            b.permissions
                .map(|p| p.contains(Permissions::ADMINISTRATOR))
                .unwrap_or(false)
        })
        .expect("calibration plants many admin bots");

    let user = eco.platform.register_user("owner#9", "o@x.y");
    let guild = eco
        .platform
        .create_guild(user, "locked", GuildVisibility::Private)
        .expect("user");
    let channel = eco.platform.default_channel(guild).expect("channel");
    let bot_user = eco
        .platform
        .install_bot(
            user,
            guild,
            &InviteUrl::bot(
                admin_listing.client_id,
                admin_listing.permissions.expect("valid"),
            ),
            true,
        )
        .expect("install");

    // Lock the channel for @everyone.
    let everyone = eco.platform.guild(guild).expect("g").everyone_role;
    let stripped = Permissions::NONE;
    eco.platform
        .edit_role(user, guild, everyone, stripped)
        .expect("owner edits");

    let alice = eco.platform.register_user("alice#7", "a@x.y");
    let code = eco.platform.create_invite(user, guild).expect("owner");
    eco.platform
        .join_guild(alice, guild, Some(&code))
        .expect("invited");

    // Alice cannot read; the admin bot can.
    assert!(eco.platform.read_history(alice, channel).is_err());
    assert!(eco.platform.read_history(bot_user, channel).is_ok());
}
